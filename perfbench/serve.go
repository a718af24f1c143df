package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dewrite/internal/config"
	"dewrite/internal/stats"
	"dewrite/internal/units"
)

const (
	// serveKeyspace is half the daemon's default 65 536 lines, so no shard
	// fills up; the connections split it evenly.
	serveKeyspace = 1 << 15
	// servePool is the number of fixed values half the PUTs draw from.
	servePool = 256
	// serveValueLen is the PUT value size, dewrite-serve -load's default.
	serveValueLen = 64
	// serveSetups is how many daemons an untraced run brings up to time the
	// set-up; the last one is measured.
	serveSetups = 5
	// daemonTimeout bounds each wait on the daemon: start, readiness, drain
	// and exit.
	daemonTimeout = 30 * time.Second
	// serveWindow is the length of the load's host-time windows.
	serveWindow = time.Second
	// prefillBatch is how many PUTs the prefill sends before reading their
	// answers; the daemon answers a connection's requests in order.
	prefillBatch = 64
	// clockTicks is the unit of the CPU times in /proc/<pid>/stat
	// (USER_HZ, 100 on Linux).
	clockTicks = 100
)

// daemon is one spawned dewrite-serve process.
type daemon struct {
	cmd     *exec.Cmd
	kvAddr  string
	opsAddr string
	drained chan struct{} // closed once the daemon's stdout reaches EOF
	http    *http.Client
}

// startDaemon spawns dewrite-serve with default flags on ephemeral
// loopback ports and waits until /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), http: &http.Client{Timeout: 5 * time.Second}}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.drained)
		var kv, ops string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "metrics on http://"); ok {
				ops, _, _ = strings.Cut(rest, "/")
			}
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				kv = strings.TrimSpace(rest)
			}
			if kv != "" && ops != "" {
				addrs <- [2]string{kv, ops}
				kv, ops = "", ""
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep draining after a scan error
	}()
	select {
	case a := <-addrs:
		d.kvAddr, d.opsAddr = a[0], a[1]
	case <-d.drained:
		d.stop()
		return nil, errors.New("dewrite-serve exited before announcing its addresses")
	case <-time.After(daemonTimeout):
		d.stop()
		return nil, errors.New("dewrite-serve did not announce its addresses")
	}
	for deadline := time.Now().Add(daemonTimeout); ; {
		resp, err := d.http.Get("http://" + d.opsAddr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("dewrite-serve never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuTime returns the daemon's user+system CPU time so far, from
// /proc/<pid>/stat, to a clock tick.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start with the
	// state, field 3; utime and stime are fields 14 and 15.
	paren := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[paren+1:]))
	if paren < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", data)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat CPU field %q: %w", s, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// stop asks the daemon to shut down gracefully, kills it if it does not
// exit in time, and waits for it. Calling it again is harmless.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(daemonTimeout):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait() // a signalled exit is expected
}

// vars is the part of the daemon's /debug/vars the benchmark reads.
type vars struct {
	Dewrite  map[string]float64 `json:"dewrite"`
	Memstats struct {
		Mallocs    uint64
		TotalAlloc uint64
		NumGC      uint32
	} `json:"memstats"`
}

func (d *daemon) scrape() (*vars, error) {
	resp, err := d.http.Get("http://" + d.opsAddr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v vars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return &v, nil
}

// sum adds every series of the metric (all label sets); the registry keys
// a labeled series as name + "\x00" + labels.
func (v *vars) sum(name string) float64 {
	var t float64
	for k, x := range v.Dewrite {
		if base, _, _ := strings.Cut(k, "\x00"); base == name {
			t += x
		}
	}
	return t
}

// labeled returns one series of a labeled metric.
func (v *vars) labeled(name, labels string) float64 {
	return v.Dewrite[name+"\x00"+labels]
}

// shardSum adds a per-shard controller gauge (serve_shard_<n>.<field>).
func (v *vars) shardSum(field string) float64 {
	var t float64
	for k, x := range v.Dewrite {
		if strings.HasPrefix(k, "serve_shard_") && strings.HasSuffix(k, "."+field) {
			t += x
		}
	}
	return t
}

// shardOps returns puts+gets per shard.
func (v *vars) shardOps() map[string]float64 {
	ops := map[string]float64{}
	for k, x := range v.Dewrite {
		base, labels, _ := strings.Cut(k, "\x00")
		if base == "serve_puts" || base == "serve_gets" {
			ops[labels] += x
		}
	}
	return ops
}

// kvClient is one closed-loop connection with its own keys and a shadow
// copy of what it stored.
type kvClient struct {
	id     int
	conn   *kvConn
	rng    *rand.Rand
	keys   []string
	shadow [][]byte
	pool   [][]byte
	win    []stats.Latency // round-trip latencies per serveWindow of the load
	winOps []int64         // requests per window

	ops, failed int64
	received    int64 // responses received, for the books check
	problem     string
}

func newKVClient(id, keys int, seed uint64, pool [][]byte) *kvClient {
	c := &kvClient{id: id, rng: rand.New(rand.NewPCG(seed, uint64(id)+1)), pool: pool}
	c.keys = make([]string, keys)
	c.shadow = make([][]byte, keys)
	for i := range c.keys {
		c.keys[i] = "c" + strconv.Itoa(id) + "-k" + strconv.Itoa(i)
	}
	return c
}

// randomValue returns a fresh PUT value; at 64 random bytes it never
// repeats.
func randomValue(r *rand.Rand) []byte {
	v := make([]byte, serveValueLen)
	for i := 0; i < serveValueLen; i += 8 {
		binary.LittleEndian.PutUint64(v[i:], r.Uint64())
	}
	return v
}

func (c *kvClient) failf(format string, args ...any) {
	c.failed++
	if c.problem == "" {
		c.problem = fmt.Sprintf("conn %d: ", c.id) + fmt.Sprintf(format, args...)
	}
}

// prefill stores a fresh value under every key, prefillBatch requests at
// a time.
func (c *kvClient) prefill() error {
	k := c.conn
	for lo := 0; lo < len(c.keys); lo += prefillBatch {
		hi := min(lo+prefillBatch, len(c.keys))
		k.out = k.out[:0]
		for i := lo; i < hi; i++ {
			c.shadow[i] = randomValue(c.rng)
			k.out = appendRequest(k.out, opPut, c.keys[i], c.shadow[i])
		}
		if _, err := k.c.Write(k.out); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		for i := lo; i < hi; i++ {
			st, _, err := readResponse(k.r, k.resp)
			if err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			c.received++
			if st != statusOK {
				return fmt.Errorf("prefill %s: status %d", c.keys[i], st)
			}
		}
	}
	return nil
}

// drive sends 50 % PUT / 50 % GET uniformly over the connection's keys
// from start until end; half the PUT values come from the pool. Every GET
// must return the shadow copy.
func (c *kvClient) drive(start, end time.Time) {
	n := int((end.Sub(start) + serveWindow - 1) / serveWindow)
	c.win, c.winOps = make([]stats.Latency, n), make([]int64, n)
	_ = c.conn.c.SetDeadline(end.Add(daemonTimeout))
	for time.Now().Before(end) {
		i := c.rng.IntN(len(c.keys))
		r := c.rng.Uint64()
		op, val := opGet, []byte(nil)
		if r&1 == 0 {
			op = opPut
			if r&2 == 0 {
				val = c.pool[(r>>2)%servePool]
			} else {
				val = randomValue(c.rng)
			}
		}
		t0 := time.Now()
		st, got, err := c.conn.do(op, c.keys[i], val)
		d := time.Since(t0)
		c.ops++
		if err != nil {
			c.failf("%v", err)
			return
		}
		c.received++
		wi := min(int(t0.Sub(start)/serveWindow), n-1)
		observe(&c.win[wi], d)
		c.winOps[wi]++
		switch {
		case st != statusOK:
			c.failf("op %d on %s: status %d", op, c.keys[i], st)
		case op == opPut:
			c.shadow[i] = val
		case !bytes.Equal(got, c.shadow[i]):
			c.failf("GET %s returned a value that differs from the last PUT", c.keys[i])
		}
	}
}

// kvSetup is one daemon with its prefilled clients.
type kvSetup struct {
	d       *daemon
	clients []*kvClient
}

// setUpServe spawns a daemon, waits for readiness and prefills every
// connection's keys in parallel.
func setUpServe(bin string, seed uint64, conns int, pool [][]byte) (*kvSetup, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	s := &kvSetup{d: d}
	for i := 0; i < conns; i++ {
		c := newKVClient(i, serveKeyspace/conns, seed, pool)
		if c.conn, err = dialKV(d.kvAddr); err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *kvClient) {
			defer wg.Done()
			errs[i] = c.prefill()
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// closeConns closes the client connections.
func (s *kvSetup) closeConns() {
	for _, c := range s.clients {
		if c.conn != nil {
			c.conn.Close()
		}
	}
}

// close closes the connections and stops the daemon.
func (s *kvSetup) close() {
	s.closeConns()
	s.d.stop()
}

// waitIdle waits until the daemon reports no open connections, where its
// books are specified to balance, and returns that scrape.
func (d *daemon) waitIdle() (*vars, error) {
	for deadline := time.Now().Add(daemonTimeout); ; {
		v, err := d.scrape()
		if err != nil {
			return nil, err
		}
		if v.sum("serve_connections_open") == 0 {
			return v, nil
		}
		if time.Now().After(deadline) {
			return nil, errors.New("connections still open")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func runServe(c runConfig) (*outcome, error) {
	if c.ServeBin == "" {
		return nil, errors.New("-serve-bin is required")
	}
	o := newOutcome()
	conns := runtime.NumCPU()
	poolRng := rand.New(rand.NewPCG(c.Seed, 0))
	pool := make([][]byte, servePool)
	for i := range pool {
		pool[i] = randomValue(poolRng)
	}

	setups := serveSetups
	if c.Trace {
		setups = 1
	}
	var times []float64
	var s *kvSetup
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setUpServe(c.ServeBin, c.Seed, conns, pool); err != nil {
			return nil, err
		}
		// The daemon started in this set-up, so all its CPU time is the
		// set-up's.
		cpu, err := s.d.cpuTime()
		if err != nil {
			s.close()
			return nil, err
		}
		times = append(times, cpu.Seconds())
	}
	defer s.close() // on error paths; stopping twice is harmless

	before, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := s.d.cpuTime()
	if err != nil {
		return nil, err
	}
	// The traced pass samples the per-epoch directory publishes while the
	// load runs.
	var pubSamples []float64
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	if c.Trace {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
					if v, err := s.d.scrape(); err == nil {
						pubSamples = append(pubSamples, v.sum("serve_directory_publishes"))
					}
				}
			}
		}()
	}

	start := time.Now()
	end := start.Add(time.Duration(c.Seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, cl := range s.clients {
		wg.Add(1)
		go func(cl *kvClient) {
			defer wg.Done()
			cl.drive(start, end)
		}(cl)
	}
	// The daemon's CPU time at the end of every window of the load.
	nwin := int((end.Sub(start) + serveWindow - 1) / serveWindow)
	cpuAt := make([]time.Duration, nwin)
	var cpuErr error
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for i := range cpuAt {
			at := start.Add(time.Duration(i+1) * serveWindow)
			if at.After(end) {
				at = end
			}
			time.Sleep(time.Until(at))
			var e error
			if cpuAt[i], e = s.d.cpuTime(); e != nil {
				cpuErr = e
				return
			}
		}
	}()
	wg.Wait()
	close(stopSampling)
	sampler.Wait()
	if cpuErr != nil {
		return nil, cpuErr
	}
	s.closeConns()
	after, err := s.d.waitIdle()
	if err != nil {
		return nil, err
	}

	var lat stats.Latency
	var w windows
	var ops, received int64
	for i := range s.clients[0].win {
		var h stats.Latency
		var n int64
		for _, cl := range s.clients {
			h.Merge(&cl.win[i])
			n += cl.winOps[i]
		}
		lat.Merge(&h)
		if n > 0 {
			w.add(n, min(serveWindow, end.Sub(start.Add(time.Duration(i)*serveWindow))), cpuAt[i]-cpu0)
			w.addLatency(&h)
		}
		cpu0 = cpuAt[i]
	}
	for _, cl := range s.clients {
		ops += cl.ops
		received += cl.received
		if cl.failed > 0 {
			o.fail(cl.failed, "%s", cl.problem)
		}
	}
	o.Attempted = ops
	if books := after.sum("serve_requests_total") + after.sum("serve_shed_total"); float64(received) != books {
		o.fail(1, "books: clients received %d responses, daemon counted %.0f", received, books)
	}
	s.close()

	delta := func(f func(*vars) float64) float64 { return f(after) - f(before) }
	sum := func(name string) func(*vars) float64 { return func(v *vars) float64 { return v.sum(name) } }
	shard := func(field string) func(*vars) float64 { return func(v *vars) float64 { return v.shardSum(field) } }
	nops := float64(ops)
	shardReqs := delta(sum("serve_puts")) + delta(sum("serve_gets"))
	writes := delta(shard("writes"))
	if !c.Trace {
		o.Metrics["setup_s"] = median(times)
		o.Samples["setup_s"] = int64(len(times))
		w.report(o)
		o.Metrics["allocs_per_req"] = float64(after.Memstats.Mallocs-before.Memstats.Mallocs) / nops
		o.Metrics["nvm_writes_per_write"] = ratio(delta(shard("dev_writes")), writes)
		o.Metrics["energy_pj_per_req"] = ratio(delta(shard("energy_pj")), shardReqs)
		return o, nil
	}

	w.reportLatency(o)
	set := func(name string, v float64) { o.Metrics[name] = v }
	set("req_per_s", median(w.rate))
	lab := func(name, labels string) func(*vars) float64 {
		return func(v *vars) float64 { return v.labeled(name, labels) }
	}
	putN := delta(lab("serve_request_latency_ns_count", `{op="put"}`))
	getN := delta(lab("serve_request_latency_ns_count", `{op="get"}`))
	putNs := delta(lab("serve_request_latency_ns_sum", `{op="put"}`))
	getNs := delta(lab("serve_request_latency_ns_sum", `{op="get"}`))
	set("serve.server_put_ns", ratio(putNs, putN))
	set("serve.server_get_ns", ratio(getNs, getN))
	set("serve.wire_ns", float64(lat.Mean())/float64(units.Nanosecond)-ratio(putNs+getNs, putN+getN))
	set("serve.barrier_stall_ns_per_req", delta(sum("serve_barrier_stall_ns_total"))/nops)
	advances := delta(sum("serve_advances_total"))
	set("serve.advance_ns_per_req", delta(sum("serve_advance_ns_total"))/nops)
	set("serve.advances_per_kreq", 1000*advances/nops)
	dupFrac := ratio(delta(shard("dup_eliminated")), writes)
	set("serve.dup_eliminated_frac", dupFrac)
	set("core.dup_frac", dupFrac)
	puts := delta(sum("serve_puts"))
	set("shard.cross_dup_frac", ratio(delta(sum("serve_cross_shard_dup_hits")), puts))
	// serve_directory_publishes is a per-epoch gauge: its sampled mean over
	// the puts of an average epoch.
	set("shard.publishes_per_put", ratio(mean(pubSamples), ratio(puts, advances)))
	o.Samples["shard.publishes_per_put"] = int64(len(pubSamples))
	opsBefore, opsAfter := before.shardOps(), after.shardOps()
	var maxOps, totalOps float64
	for k, x := range opsAfter {
		d := x - opsBefore[k]
		totalOps += d
		if d > maxOps {
			maxOps = d
		}
	}
	if len(opsAfter) > 0 {
		set("serve.shard_imbalance", ratio(maxOps, totalOps/float64(len(opsAfter))))
	}
	shed := delta(sum("serve_shed_total"))
	set("serve.shed_frac", ratio(shed, delta(sum("serve_requests_total"))+shed))
	set("serve.slow_frac", delta(sum("serve_slow_requests_total"))/nops)
	set("serve.daemon_gc_per_kreq", 1000*float64(after.Memstats.NumGC-before.Memstats.NumGC)/nops)
	set("serve.daemon_bytes_per_req", float64(after.Memstats.TotalAlloc-before.Memstats.TotalAlloc)/nops)
	set("nvm.writes_per_req", ratio(delta(shard("dev_writes")), shardReqs))

	// Layer microcosts on the lines the daemon stores: a 2-byte length
	// prefix and the value.
	cp := corpus{}
	for _, cl := range s.clients {
		for _, v := range cl.shadow {
			line := new([config.LineSize]byte)
			binary.BigEndian.PutUint16(line[:2], uint16(len(v)))
			copy(line[2:], v)
			cp.addrs = append(cp.addrs, uint64(len(cp.lines)))
			cp.lines = append(cp.lines, line)
		}
	}
	mc := measureCorpus(cp, uint64(len(cp.lines)), config.Default())
	for k, v := range mc.metrics() {
		if v != 0 {
			set(k, v)
		}
	}
	return o, nil
}

func mean(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return ratio(t, float64(len(vs)))
}
