package dedup

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"dewrite/internal/rng"
)

// populated builds tables with a random but valid operation history.
func populated(t *testing.T, seed uint64, lines uint64) *Tables {
	t.Helper()
	tb := NewTables(lines, 16)
	src := rng.New(seed)
	hashes := []uint32{1, 2, 3, 4, 5}
	for i := 0; i < 2000; i++ {
		logical := src.Uint64n(lines)
		h := hashes[src.Intn(len(hashes))]
		placed := false
		if src.Bool(0.7) {
			for _, cand := range tb.Candidates(h) {
				if tb.Acceptable(cand) {
					tb.MapDuplicate(logical, cand)
					placed = true
					break
				}
			}
		}
		if !placed {
			chosen, _, _ := tb.PlaceUnique(logical, h)
			if src.Bool(0.2) {
				tb.SetZeroFlag(chosen)
			}
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig := populated(t, 7, 128)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTables(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Behavioural equality: every mapping, liveness, hash, refs and zero
	// flag agree.
	if got.Lines() != orig.Lines() {
		t.Fatal("lines differ")
	}
	for logical := uint64(0); logical < orig.Lines(); logical++ {
		lo, oko := orig.LocationOf(logical)
		lg, okg := got.LocationOf(logical)
		if oko != okg || lo != lg {
			t.Fatalf("mapping of %d differs: %v/%v vs %v/%v", logical, lo, oko, lg, okg)
		}
	}
	for loc := uint64(0); loc < orig.Lines(); loc++ {
		if orig.IsLive(loc) != got.IsLive(loc) {
			t.Fatalf("liveness of %d differs", loc)
		}
		if orig.Refs(loc) != got.Refs(loc) {
			t.Fatalf("refs of %d differ", loc)
		}
		ho, _ := orig.HashOf(loc)
		hg, _ := got.HashOf(loc)
		if ho != hg {
			t.Fatalf("hash of %d differs", loc)
		}
		if orig.IsZeroLocation(loc) != got.IsZeroLocation(loc) {
			t.Fatalf("zero flag of %d differs", loc)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	tb := populated(t, 9, 64)
	var a, b bytes.Buffer
	tb.WriteTo(&a)
	tb.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot serialization is not deterministic")
	}
}

func TestRestoredTablesKeepWorking(t *testing.T) {
	orig := populated(t, 11, 64)
	var buf bytes.Buffer
	orig.WriteTo(&buf)
	got, err := ReadTables(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Continue operating on the restored tables: invariants must hold.
	src := rng.New(13)
	for i := 0; i < 1000; i++ {
		logical := src.Uint64n(64)
		h := uint32(src.Uint64n(5) + 1)
		placed := false
		for _, cand := range got.Candidates(h) {
			if got.Acceptable(cand) {
				got.MapDuplicate(logical, cand)
				placed = true
				break
			}
		}
		if !placed {
			got.PlaceUnique(logical, h)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad magic": "NOTASNAP" + strings.Repeat("\x00", 64),
		"truncated": snapshotMagicFor(t),
	}
	for name, in := range cases {
		if _, err := ReadTables(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func snapshotMagicFor(t *testing.T) string {
	t.Helper()
	return "DWDT1\n" // header only, counts missing
}

func TestSnapshotRejectsCorruptCounts(t *testing.T) {
	tb := populated(t, 17, 32)
	var buf bytes.Buffer
	tb.WriteTo(&buf)
	raw := buf.Bytes()
	// Corrupt the mapping count (bytes 6+24 .. 6+32 hold it) to a huge value.
	copy(raw[len("DWDT1\n")+24:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if _, err := ReadTables(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error on corrupt count")
	}
}

// rawSnapshot assembles a DWDT1 snapshot field by field, so a test can state
// records WriteTo never emits. Each mapping is {logical, location}; each
// location is {addr, hash, refs, zero}.
func rawSnapshot(lines, maxRef, freshScan uint64, mappings [][2]uint64, locs [][4]uint64, freed []uint64) []byte {
	out := []byte(snapshotMagic)
	put := func(vs ...uint64) {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
	}
	put(lines, maxRef, freshScan, uint64(len(mappings)))
	for _, m := range mappings {
		put(m[:]...)
	}
	put(uint64(len(locs)))
	for _, l := range locs {
		put(l[:]...)
	}
	put(uint64(len(freed)))
	put(freed...)
	return out
}

// repeatedLocationSnapshot lists location 1 twice. Accepted, it would index
// the location twice under its fingerprint, and the first rewrite of
// logical 1 would leave a stale chain entry behind.
func repeatedLocationSnapshot() []byte {
	return rawSnapshot(8, 4, 2, [][2]uint64{{1, 1}}, [][4]uint64{{1, 0x11, 1, 0}, {1, 0x11, 1, 0}}, nil)
}

func TestSnapshotRejectsRepeatedRecords(t *testing.T) {
	cases := map[string][]byte{
		"repeated location": repeatedLocationSnapshot(),
		"repeated mapping": rawSnapshot(8, 4, 2, [][2]uint64{{1, 1}, {1, 1}},
			[][4]uint64{{1, 0x11, 1, 0}}, nil),
		"unordered mappings": rawSnapshot(8, 4, 3, [][2]uint64{{2, 2}, {1, 1}},
			[][4]uint64{{1, 0x11, 1, 0}, {2, 0x22, 1, 0}}, nil),
		"unordered locations": rawSnapshot(8, 4, 3, [][2]uint64{{1, 1}, {2, 2}},
			[][4]uint64{{2, 0x22, 1, 0}, {1, 0x11, 1, 0}}, nil),
	}
	for name, raw := range cases {
		if _, err := ReadTables(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same records in WriteTo's order are a valid snapshot.
	ok := rawSnapshot(8, 4, 3, [][2]uint64{{1, 1}, {2, 2}}, [][4]uint64{{1, 0x11, 1, 0}, {2, 0x22, 1, 0}}, nil)
	tb, err := ReadTables(bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	tb.PlaceUnique(1, 0x22)
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsFlagRepeatedChainEntry: a location listed twice under its
// own fingerprint breaks the first release, so CheckInvariants reports it.
func TestInvariantsFlagRepeatedChainEntry(t *testing.T) {
	tb := NewTables(8, 4)
	tb.PlaceUnique(1, 0x11)
	tb.hash[0x11] = append(tb.hash[0x11], 1)
	err := tb.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("CheckInvariants = %v, want a repeated-entry error", err)
	}
}
