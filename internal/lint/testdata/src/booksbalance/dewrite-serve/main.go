// Command dewrite-serve (fixture) mirrors the daemon's connection loop just
// enough for the books invariant: frames are decoded with readRequest,
// responses committed with writeResponse and then flushed through a buffered
// writer, and every committed response must land in exactly one of the
// requests or sheds counter families before the flush.
package main

type conn struct{}

func (c *conn) Flush() error { return nil }

type counter struct{ n uint64 }

func (c *counter) Inc() { c.n++ }

type metrics struct {
	requests      counter
	sheds         counter
	flushFailures counter
}

func readRequest(c *conn) (byte, error)        { return 0, nil }
func writeResponse(c *conn, status byte) error { return nil }

// serveGood is the compliant loop: one increment between the commit and the
// next frame decode on every path, the failed flush included, which is
// counted in its own family.
func serveGood(c *conn, m *metrics) {
	for {
		op, err := readRequest(c)
		if err != nil {
			return
		}
		if err := writeResponse(c, op); err != nil {
			return
		}
		m.requests.Inc()
		if err := c.Flush(); err != nil {
			m.flushFailures.Inc()
			return
		}
	}
}

// serveCountAfterFlush counts only once the flush succeeded: a client can
// read its reply before the counter moves, and the failed flush leaves the
// books without the response.
func serveCountAfterFlush(c *conn, m *metrics) {
	for {
		op, err := readRequest(c)
		if err != nil {
			return
		}
		if err := writeResponse(c, op); err != nil { // want `a path from this committed response reaches function exit without incrementing serve_requests_total or serve_shed_total: the books lose a response`
			return
		}
		if err := c.Flush(); err != nil {
			return
		}
		m.requests.Inc()
	}
}

// serveLossy skips the increment when shedding: the shed response reaches
// the client but never reaches the books.
func serveLossy(c *conn, m *metrics, shed bool) {
	for {
		op, err := readRequest(c)
		if err != nil {
			return
		}
		if err := writeResponse(c, op); err != nil { // want `a path from this committed response reaches the next frame decode without incrementing serve_requests_total or serve_shed_total: the books lose a response`
			return
		}
		if !shed {
			m.requests.Inc()
		}
		_ = c.Flush()
	}
}

// serveDouble counts the same response in both families.
func serveDouble(c *conn, m *metrics) {
	for {
		op, err := readRequest(c)
		if err != nil {
			return
		}
		if err := writeResponse(c, op); err != nil { // want `a path from this committed response reaches the next frame decode with 2 books increments: the response is double-counted`
			return
		}
		m.requests.Inc()
		m.sheds.Inc()
		_ = c.Flush()
	}
}

// serveOnce commits and falls off the end of the function without counting.
func serveOnce(c *conn, m *metrics) {
	op, err := readRequest(c)
	if err != nil {
		return
	}
	if err := writeResponse(c, op); err != nil { // want `a path from this committed response reaches function exit without incrementing serve_requests_total or serve_shed_total: the books lose a response`
		return
	}
	_ = c.Flush()
}

// observe increments exactly once on every one of its own paths, so callers
// satisfy the books through its fixpoint summary.
func observe(m *metrics, ok bool) {
	if ok {
		m.requests.Inc()
	} else {
		m.sheds.Inc()
	}
}

// serveViaHelper counts through the package-local helper: clean.
func serveViaHelper(c *conn, m *metrics, ok bool) {
	for {
		op, err := readRequest(c)
		if err != nil {
			return
		}
		if err := writeResponse(c, op); err != nil {
			return
		}
		observe(m, ok)
		if err := c.Flush(); err != nil {
			m.flushFailures.Inc()
			return
		}
	}
}

// serveSuppressed demonstrates suppression: the lossy path is acknowledged
// with a directive instead of a fix.
func serveSuppressed(c *conn, m *metrics) {
	for {
		op, err := readRequest(c)
		if err != nil {
			return
		}
		//dewrite:allow booksbalance fixture demonstrates suppressing a known-lossy path
		if err := writeResponse(c, op); err != nil {
			return
		}
		if err := c.Flush(); err != nil {
			return
		}
	}
}

func main() {}
