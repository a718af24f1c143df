package dedup

import (
	"bytes"
	"testing"
)

// FuzzReadTables checks the snapshot parser never panics and that anything
// it accepts satisfies the table invariants and round-trips.
func FuzzReadTables(f *testing.F) {
	// Seed corpus: a valid snapshot, a truncation, garbage, and a snapshot
	// repeating a location record.
	tb := NewTables(32, 8)
	tb.PlaceUnique(1, 0x11)
	tb.MapDuplicate(2, 1)
	tb.PlaceUnique(3, 0x22)
	tb.PlaceUnique(1, 0x33) // rewrite: frees nothing (still referenced by 2)
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-9])
	f.Add([]byte("DWDT1\nxxxxxxxxxxxxxxxxxxxxxxxx"))
	f.Add(repeatedLocationSnapshot())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTables(bytes.NewReader(data))
		if err != nil {
			return
		}
		// ReadTables validates invariants itself; double-check and round-trip.
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates invariants: %v", err)
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted snapshot failed to serialize: %v", err)
		}
		if _, err := ReadTables(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-serialized snapshot rejected: %v", err)
		}
	})
}
