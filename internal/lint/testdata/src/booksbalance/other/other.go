// Package other sits outside the booksbalance gate: the books invariant
// belongs to the serving daemon alone, so the same lossy response is ignored
// here.
package other

type conn struct{}

func (c *conn) Flush() error { return nil }

type counter struct{ n uint64 }

func (c *counter) Inc() { c.n++ }

type metrics struct {
	requests counter
	sheds    counter
}

func readRequest(c *conn) (byte, error)        { return 0, nil }
func writeResponse(c *conn, status byte) error { return nil }

func serveLossy(c *conn, m *metrics) {
	for {
		op, err := readRequest(c)
		if err != nil {
			return
		}
		if err := writeResponse(c, op); err != nil {
			return
		}
		_ = c.Flush()
		_ = m
	}
}
