package hashes

import "testing"

// The digests run on every modeled write, so they must not touch the heap
// beyond their input: value-array returns keep them at exactly zero
// allocations. These tests pin that.
func TestDigestAllocations(t *testing.T) {
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i * 37)
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"CRC32", func() { CRC32(line) }},
		{"SHA1", func() { SHA1(line) }},
		{"MD5", func() { MD5(line) }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, avg)
		}
	}
}
