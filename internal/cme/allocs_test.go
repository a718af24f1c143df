package cme

import (
	"testing"

	"dewrite/internal/config"
)

// TestEngineAllocations pins every line entry point at zero allocations with
// the caller's buffers declared inside the measured function. The cipher is
// an interface, so a caller buffer that reached it would escape and cost one
// heap allocation per call; the engine's own scratch keeps them on the stack.
func TestEngineAllocations(t *testing.T) {
	e := testEngine(t)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Pad", func() {
			var pad [config.LineSize]byte
			e.Pad(pad[:], 0x40, 7)
		}},
		{"EncryptLine", func() {
			var src, dst [config.LineSize]byte
			e.EncryptLine(dst[:], src[:], 0x40, 7)
		}},
		{"DecryptLine", func() {
			var src, dst [config.LineSize]byte
			e.DecryptLine(dst[:], src[:], 0x40, 7)
		}},
		{"DirectEncryptLine", func() {
			var src, dst [config.LineSize]byte
			e.DirectEncryptLine(dst[:], src[:])
		}},
		{"DirectDecryptLine", func() {
			var src, dst [config.LineSize]byte
			e.DirectDecryptLine(dst[:], src[:])
		}},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, avg)
		}
	}
}

// TestCounterStoreBumpAllocations: once a line's page exists, bumping any
// counter on it allocates nothing.
func TestCounterStoreBumpAllocations(t *testing.T) {
	s := NewCounterStore()
	s.Bump(0x40)
	addr := uint64(0x40)
	if avg := testing.AllocsPerRun(200, func() {
		s.Bump(addr)
		addr = 0x40 + (addr+1)%64
	}); avg != 0 {
		t.Errorf("Bump: %.1f allocs/op, want 0", avg)
	}
}
