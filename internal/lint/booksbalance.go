package lint

import (
	"go/ast"
	"go/types"
	"sort"

	"dewrite/internal/lint/analysis"
	"dewrite/internal/lint/analysis/cfg"
)

// booksBalancePkgs gates the check to the request-serving daemon, the only
// place where the books invariant "every response a client receives is
// counted exactly once in serve_requests_total or serve_shed_total" lives.
var booksBalancePkgs = map[string]bool{
	"dewrite-serve": true,
}

// BooksBalance proves the books invariant over the CFG of every
// request-handling function.
var BooksBalance = &analysis.Analyzer{
	Name: "booksbalance",
	Doc: "every committed response must increment exactly one books counter\n\n" +
		"The serving contract (DESIGN.md sections 13 and 14) is that responses\n" +
		"are counted in serve_requests_total or serve_shed_total when they are\n" +
		"committed, before the flush, so a client that has its reply can never\n" +
		"read the books behind it; the chaos soak asserts the balance\n" +
		"dynamically, this analyzer proves it per path. Each committed\n" +
		"response — the false edge of an\n" +
		"`if err := writeResponse(...); err != nil` guard — anchors a CFG\n" +
		"traversal: every path from there to the next frame decode\n" +
		"(readRequest) or to function exit, the failed-flush exit included,\n" +
		"must pass exactly one increment of a counter rooted in the requests\n" +
		"or sheds metric families. Increments inside package-local callees\n" +
		"count through fixpoint summaries, so a helper like observe()\n" +
		"satisfies the books if every one of its own paths increments exactly\n" +
		"once.",
	Run: runBooksBalance,
}

// countInterval is the lattice of books increments along a path or inside a
// callee: [min,max], each capped at 2 ("two or more").
type countInterval struct{ min, max int }

const countCap = 2

func (c countInterval) plus(d countInterval) countInterval {
	return countInterval{min: capCount(c.min + d.min), max: capCount(c.max + d.max)}
}

func (c countInterval) union(d countInterval) countInterval {
	return countInterval{min: minInt(c.min, d.min), max: maxInt(c.max, d.max)}
}

func capCount(n int) int {
	if n > countCap {
		return countCap
	}
	return n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type booksAnalysis struct {
	pass      *analysis.Pass
	summaries map[*types.Func]countInterval
}

func runBooksBalance(pass *analysis.Pass) (interface{}, error) {
	if !booksBalancePkgs[pathBase(pass.Pkg.Path())] {
		return nil, nil
	}
	a := &booksAnalysis{pass: pass, summaries: map[*types.Func]countInterval{}}
	funcs := pass.Funcs()
	for _, fn := range funcs {
		a.summaries[fn.Obj] = countInterval{}
	}
	analysis.Fixpoint(funcs, func(fn analysis.FuncInfo) bool {
		sum := a.functionInterval(fn.Decl.Body)
		if sum != a.summaries[fn.Obj] {
			a.summaries[fn.Obj] = sum
			return true
		}
		return false
	})
	for _, fn := range funcs {
		a.checkAnchors(fn.Decl)
	}
	return nil, nil
}

// isBooksInc matches X.Inc() where X's selector chain passes through a
// struct field named "requests" or "sheds" — the two counter families of
// the books.
func (a *booksAnalysis) isBooksInc(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Inc" {
		return false
	}
	found := false
	ast.Inspect(sel.X, func(n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s.Sel.Name == "requests" || s.Sel.Name == "sheds" {
			if v, ok := a.pass.ObjectOf(s.Sel).(*types.Var); ok && v.IsField() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// nodeInterval returns the books increments contributed by one CFG node:
// direct Inc calls plus package-local callee summaries.
func (a *booksAnalysis) nodeInterval(node ast.Node) countInterval {
	total := countInterval{}
	cfg.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if a.isBooksInc(call) {
			total = total.plus(countInterval{min: 1, max: 1})
			return false // the chain below carries no further calls of interest
		}
		if callee := a.pass.StaticCallee(call); callee != nil {
			if sum, ok := a.summaries[callee]; ok {
				total = total.plus(sum)
			}
		}
		return true
	})
	return total
}

// functionInterval computes [min,max] books increments over all entry-to-
// exit paths of body, the per-function summary.
func (a *booksAnalysis) functionInterval(body *ast.BlockStmt) countInterval {
	g := cfg.New(body)
	in := map[*cfg.Block]countInterval{g.Entry: {}}
	seen := map[*cfg.Block]bool{g.Entry: true}
	work := []*cfg.Block{g.Entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		out := in[blk]
		for _, n := range blk.Nodes {
			out = out.plus(a.nodeInterval(n))
		}
		for _, succ := range blk.Succs {
			next := out
			if seen[succ] {
				next = in[succ].union(out)
				if next == in[succ] {
					continue
				}
			}
			in[succ] = next
			seen[succ] = true
			work = append(work, succ)
		}
	}
	return in[g.Exit] // zero interval when Exit is unreachable (infinite loop)
}

// checkAnchors verifies the books from every committed response.
func (a *booksAnalysis) checkAnchors(decl *ast.FuncDecl) {
	g := cfg.New(decl.Body)
	for _, blk := range g.Blocks {
		ifStmt, ok := blk.Branch.(*ast.IfStmt)
		if !ok || !isWriteResponseErrCheck(ifStmt) || len(blk.Succs) < 2 {
			continue
		}
		// Succs[1] is the err == nil edge: the response is committed.
		a.traverseFrom(g, blk.Succs[1], ifStmt)
	}
}

// traverseFrom walks every path from the committed-response edge, accumulating
// books increments until the next frame decode (a block calling
// readRequest) or function exit, and reports paths whose count is not
// exactly one.
func (a *booksAnalysis) traverseFrom(g *cfg.CFG, start *cfg.Block, anchor *ast.IfStmt) {
	type stateKey struct {
		blk   *cfg.Block
		count countInterval
	}
	visited := map[stateKey]bool{}
	bad := map[string]countInterval{} // stop description -> offending interval
	var dfs func(blk *cfg.Block, count countInterval)
	dfs = func(blk *cfg.Block, count countInterval) {
		key := stateKey{blk, count}
		if visited[key] {
			return
		}
		visited[key] = true
		if blk == g.Exit {
			if count.min != 1 || count.max != 1 {
				bad["function exit"] = unionInto(bad, "function exit", count)
			}
			return
		}
		if blockCallsReadRequest(blk) {
			if count.min != 1 || count.max != 1 {
				bad["the next frame decode"] = unionInto(bad, "the next frame decode", count)
			}
			return
		}
		for _, n := range blk.Nodes {
			count = count.plus(a.nodeInterval(n))
		}
		for _, succ := range blk.Succs {
			dfs(succ, count)
		}
	}
	dfs(start, countInterval{})
	stops := make([]string, 0, len(bad))
	for stop := range bad {
		stops = append(stops, stop)
	}
	sort.Strings(stops)
	for _, stop := range stops {
		c := bad[stop]
		switch {
		case c.min == 0:
			a.pass.Reportf(anchor.Pos(), "a path from this committed response reaches %s without incrementing serve_requests_total or serve_shed_total: the books lose a response", stop)
		default:
			a.pass.Reportf(anchor.Pos(), "a path from this committed response reaches %s with %d books increments: the response is double-counted", stop, c.max)
		}
	}
}

func unionInto(bad map[string]countInterval, key string, c countInterval) countInterval {
	if prev, ok := bad[key]; ok {
		return prev.union(c)
	}
	return c
}

// isWriteResponseErrCheck matches
// `if err := writeResponse(...); err != nil { ... }`.
func isWriteResponseErrCheck(ifStmt *ast.IfStmt) bool {
	assign, ok := ifStmt.Init.(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	return ok && calleeName(call) == "writeResponse"
}

// blockCallsReadRequest reports whether the block decodes the next frame.
func blockCallsReadRequest(blk *cfg.Block) bool {
	for _, n := range blk.Nodes {
		found := false
		cfg.Inspect(n, func(nn ast.Node) bool {
			call, ok := nn.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name := calleeName(call); name == "readRequest" {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
