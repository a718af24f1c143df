// Package pages provides Array, the flat per-line state behind the
// simulator's metadata tables: an array indexed by line address whose
// storage is allocated one fixed-size page at a time, on first touch.
//
// The paper's address-mapping, inverted-hash and FSM tables and its per-line
// encryption counters are arrays indexed by line address (Section III-B2,
// III-C). A page-granular array keeps that shape — a few bounds checks and
// loads per lookup, iteration in address order — while building an empty
// table stays O(1) however many lines it covers.
package pages

import "slices"

const (
	// Size is the number of entries one page holds.
	Size = 64
	// dirPages is the number of page pointers one directory chunk holds.
	// Chunks make the directory cost follow the address range in use, not
	// the highest address: one entry near 1<<32 costs a 512 KiB top level,
	// not a 512 MiB flat directory.
	dirPages  = 1024
	chunkSpan = Size * dirPages // indexes one chunk covers
)

// Array maps indexes to values of type T. Entries of untouched pages read as
// the zero value of T. The zero Array is empty and ready to use. Not safe
// for concurrent use.
type Array[T any] struct {
	dir []*[dirPages]*[Size]T // indexed by index / chunkSpan; nil = never touched
}

// At returns the entry at i, or the zero value when its page was never
// touched. It never allocates.
func (a *Array[T]) At(i uint64) T {
	if p := a.Lookup(i); p != nil {
		return *p
	}
	var zero T
	return zero
}

// Lookup returns a pointer to the entry at i, or nil when its page was never
// touched. It never allocates.
func (a *Array[T]) Lookup(i uint64) *T {
	if ci := i / chunkSpan; ci < uint64(len(a.dir)) {
		if c := a.dir[ci]; c != nil {
			if p := c[i/Size%dirPages]; p != nil {
				return &p[i%Size]
			}
		}
	}
	return nil
}

// Ptr returns a pointer to the entry at i, allocating its page on first use.
func (a *Array[T]) Ptr(i uint64) *T {
	ci := i / chunkSpan
	if ci >= uint64(len(a.dir)) {
		a.dir = slices.Grow(a.dir, int(ci+1)-len(a.dir))[:ci+1]
	}
	c := a.dir[ci]
	if c == nil {
		c = new([dirPages]*[Size]T)
		a.dir[ci] = c
	}
	p := c[i/Size%dirPages]
	if p == nil {
		p = new([Size]T)
		c[i/Size%dirPages] = p
	}
	return &p[i%Size]
}

// Each calls fn for every entry of every touched page, in index order.
// Entries of a touched page that were never set are visited too (as zero
// values); callers skip them by value.
func (a *Array[T]) Each(fn func(i uint64, v *T)) {
	for ci, c := range a.dir {
		if c == nil {
			continue
		}
		for pi, p := range c {
			if p == nil {
				continue
			}
			base := uint64(ci)*chunkSpan + uint64(pi)*Size
			for j := range p {
				fn(base+uint64(j), &p[j])
			}
		}
	}
}
