package pages

import (
	"reflect"
	"runtime"
	"testing"
)

func TestUntouchedReadsZero(t *testing.T) {
	var a Array[uint64]
	if a.At(0) != 0 || a.At(1<<40) != 0 {
		t.Fatal("empty array reads nonzero")
	}
	if a.Lookup(5) != nil {
		t.Fatal("Lookup allocated a page")
	}
	*a.Ptr(Size + 1) = 7
	if a.At(Size+1) != 7 || a.At(Size) != 0 || a.At(1) != 0 {
		t.Fatal("write leaked to a neighbour")
	}
	if a.Lookup(1) != nil {
		t.Fatal("untouched page 0 exists")
	}
	if p := a.Lookup(Size); p == nil || *p != 0 {
		t.Fatal("touched page missing its zero entries")
	}
}

// TestEachVisitsTouchedPagesInOrder: Each walks the entries of touched pages
// in index order whatever order they were set in.
func TestEachVisitsTouchedPagesInOrder(t *testing.T) {
	var a Array[int]
	for _, i := range []uint64{3*Size + 2, 5, Size - 1} {
		*a.Ptr(i) = int(i)
	}
	var set []uint64
	visited := 0
	a.Each(func(i uint64, v *int) {
		visited++
		if *v != 0 {
			set = append(set, i)
		}
	})
	if want := []uint64{5, Size - 1, 3*Size + 2}; !reflect.DeepEqual(set, want) {
		t.Fatalf("set entries %v, want %v", set, want)
	}
	if visited != 2*Size {
		t.Fatalf("visited %d entries, want the %d of two pages", visited, 2*Size)
	}
}

func TestPtrAllocations(t *testing.T) {
	var a Array[uint64]
	a.Ptr(0)
	i := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		*a.Ptr(i)++
		i = (i + 1) % Size
	}); n != 0 {
		t.Fatalf("Ptr into an existing page: %v allocs", n)
	}
}

// TestHighIndexCostsItsChunk: touching one entry near 1<<32 allocates the
// top-level directory, one chunk and one page (about 520 KiB), not the
// 512 MiB of a directory entry per page below it.
func TestHighIndexCostsItsChunk(t *testing.T) {
	var a Array[uint64]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	*a.Ptr(1<<32 - 1) = 1
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("one entry at 1<<32-1 allocated %d bytes", grew)
	}
	var seen []uint64
	a.Each(func(i uint64, v *uint64) {
		if *v != 0 {
			seen = append(seen, i)
		}
	})
	if !reflect.DeepEqual(seen, []uint64{1<<32 - 1}) || a.At(1<<32-1) != 1 {
		t.Fatalf("Each saw %v", seen)
	}
}
