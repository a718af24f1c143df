package dedup

import (
	"runtime"
	"testing"
)

// TestTablesSteadyStateAllocations pins the write paths at zero allocations
// once the pages they touch exist: a unique rewrite under a new fingerprint
// (release, free, own-slot claim; the emptied hash chain is reused for the
// new fingerprint), a duplicate that frees the line's old location, and a
// duplicate that only moves a reference.
func TestTablesSteadyStateAllocations(t *testing.T) {
	const lines = 256
	tb := NewTables(lines, 255)
	for a := uint64(0); a < lines; a++ {
		tb.PlaceUnique(a, uint32(a))
	}
	h := uint32(lines)
	rewrite := func() {
		for a := uint64(8); a < lines; a++ {
			h++
			if _, _, _, ok := tb.TryPlaceUnique(a, h); !ok {
				t.Fatal("TryPlaceUnique: no free location")
			}
		}
	}
	// Each own-slot reclaim leaves a stale entry on the free list, whose
	// backing array grows a few times over the measured runs: well under
	// one allocation per run, so a per-write allocation still shows.
	rewrite()
	if n := testing.AllocsPerRun(200, rewrite); n != 0 {
		t.Errorf("TryPlaceUnique rewrite: %v allocs per %d lines", n, lines-8)
	}

	// Logical 1 alternates between its own unique data (freed when it
	// becomes a duplicate of 0) and a duplicate of 0.
	dupCycle := func() {
		tb.MapDuplicate(1, 0)
		h++
		tb.TryPlaceUnique(1, h)
	}
	dupCycle()
	if n := testing.AllocsPerRun(1000, dupCycle); n != 0 {
		t.Errorf("MapDuplicate freeing the old location: %v allocs per cycle", n)
	}

	// Logical 2 moves its reference between 3 and 4 (both keep their own).
	move := func() {
		tb.MapDuplicate(2, 3)
		tb.MapDuplicate(2, 4)
	}
	if n := testing.AllocsPerRun(1000, move); n != 0 {
		t.Errorf("MapDuplicate moving a reference: %v allocs per cycle", n)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNewTablesAllocatesNoPages: pages come on first touch, so building
// tables over 64 Mi lines (a 16 GB device) costs the same as over a few.
func TestNewTablesAllocatesNoPages(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb := NewTables(64<<20, 255)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("NewTables allocated %d bytes for %d lines", grew, tb.Lines())
	}
}
