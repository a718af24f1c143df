package nvm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// byteFlips is the byte-at-a-time reference for flipCount.
func byteFlips(a, b []byte) uint64 {
	var n uint64
	for i := range a {
		for x := a[i] ^ b[i]; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}

// TestFlipCountMatchesByteReference drives random, all-zero and all-ones
// lines through Write, as a first write to a fresh line and as overwrites,
// and checks every BitsFlipped step against the byte-wise reference.
func TestFlipCountMatchesByteReference(t *testing.T) {
	r := rng.New(5)
	kinds := []struct {
		name string
		fill func([]byte)
	}{
		{"random", r.Fill},
		{"zeros", func(b []byte) { clear(b) }},
		{"ones", func(b []byte) {
			for i := range b {
				b[i] = 0xff
			}
		}},
	}
	zero := make([]byte, config.LineSize)
	for _, first := range kinds {
		for _, second := range kinds {
			d := testDevice()
			const addr = 77
			a := make([]byte, config.LineSize)
			b := make([]byte, config.LineSize)
			first.fill(a)
			second.fill(b)

			d.Write(0, addr, a)
			if got, want := d.Stats().BitsFlipped, byteFlips(zero, a); got != want {
				t.Fatalf("fresh %s line: BitsFlipped = %d, want %d", first.name, got, want)
			}
			before := d.Stats().BitsFlipped
			d.Write(0, addr, b)
			if got, want := d.Stats().BitsFlipped-before, byteFlips(a, b); got != want {
				t.Fatalf("%s over %s: flips = %d, want %d", second.name, first.name, got, want)
			}
		}
	}
	// Many random pairs, straight through flipCount.
	var x, y [config.LineSize]byte
	for k := 0; k < 2000; k++ {
		r.Fill(x[:])
		r.Fill(y[:])
		// Sparse differences exercise words that differ in a single byte.
		if k%2 == 0 {
			y = x
			y[r.Uint64n(config.LineSize)] ^= byte(1 + r.Uint64n(255))
		}
		if got, want := uint64(flipCount(&x, &y)), byteFlips(x[:], y[:]); got != want {
			t.Fatalf("pair %d: flipCount = %d, want %d", k, got, want)
		}
	}
}

// encodeV1 builds a DWNV1 blob by hand: the format SaveContents must emit.
func encodeV1(devLines uint64, lines []savedLine) []byte {
	var b bytes.Buffer
	b.WriteString(stateMagic)
	put := func(v uint64) { b.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	put(devLines)
	put(uint64(len(lines)))
	for _, l := range lines {
		put(l.addr)
		put(l.wear)
		b.Write(l.data)
	}
	return b.Bytes()
}

type savedLine struct {
	addr, wear uint64
	data       []byte
}

// TestSaveLoadAcrossPageBoundary round-trips lines on both sides of page
// boundaries, plus a line that only has wear (a pulse whose verify failed,
// which stores nothing): SaveContents must emit the documented ascending
// layout and skip the wear-only line, and a reload must restore the same
// contents, WearOf, WearStats and per-bank wear.
func TestSaveLoadAcrossPageBoundary(t *testing.T) {
	d := testDevice()
	r := rng.New(11)
	want := map[uint64][]byte{}
	wear := map[uint64]uint64{}
	write := func(addr uint64, times int) {
		for k := 0; k < times; k++ {
			line := make([]byte, config.LineSize)
			r.Fill(line)
			d.Write(0, addr, line)
			want[addr] = line
			wear[addr]++
		}
	}
	write(pageLines+1, 1)
	write(pageLines-1, 3)
	write(pageLines, 2)
	write(3*pageLines+5, 1)
	// Wear without contents, in a page no other line touches.
	const wornOnly = 2*pageLines + 7
	d.writeArray(0, wornOnly, make([]byte, config.LineSize), false, attr.CauseDemand)
	d.writeArray(0, wornOnly, make([]byte, config.LineSize), false, attr.CauseDemand)
	if d.WearOf(wornOnly) != 2 || !bytes.Equal(d.Peek(wornOnly), make([]byte, config.LineSize)) {
		t.Fatalf("wear-only line: wear %d, contents %x...", d.WearOf(wornOnly), d.Peek(wornOnly)[:8])
	}
	if w := d.WearStats(); w.TouchedLines != 5 || w.TotalWrites != 9 || w.MaxPerLine != 3 {
		t.Fatalf("WearStats before save = %+v", w)
	}

	var saved bytes.Buffer
	if err := d.SaveContents(&saved); err != nil {
		t.Fatal(err)
	}
	var lines []savedLine
	for _, a := range []uint64{pageLines - 1, pageLines, pageLines + 1, 3*pageLines + 5} {
		lines = append(lines, savedLine{a, wear[a], want[a]})
	}
	if !bytes.Equal(saved.Bytes(), encodeV1(d.Lines(), lines)) {
		t.Fatal("SaveContents layout differs from the ascending DWNV1 encoding")
	}

	rd := testDevice()
	if err := rd.LoadContents(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	for a, line := range want {
		if !bytes.Equal(rd.Peek(a), line) || rd.WearOf(a) != wear[a] {
			t.Fatalf("line %d after reload: wear %d (want %d), contents match %v",
				a, rd.WearOf(a), wear[a], bytes.Equal(rd.Peek(a), line))
		}
	}
	if rd.WearOf(wornOnly) != 0 {
		t.Fatalf("wear-only line survived the reload with wear %d", rd.WearOf(wornOnly))
	}
	if w := rd.WearStats(); w.TouchedLines != 4 || w.TotalWrites != 7 || w.MaxPerLine != 3 {
		t.Fatalf("WearStats after reload = %+v", w)
	}
	bankWear := make([]uint64, len(rd.banks))
	for a, n := range wear {
		bankWear[rd.Bank(a)] += n
	}
	var e timeline.Epoch
	rd.SampleEpoch(&e, 0, 0)
	if !slices.Equal(e.BankWear, bankWear) {
		t.Fatalf("per-bank wear after reload = %v, want %v", e.BankWear, bankWear)
	}
	var again bytes.Buffer
	if err := rd.SaveContents(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Fatal("save→load→save is not byte-identical")
	}
}

// TestLoadRejectsUnorderedAddresses: SaveContents writes each line once in
// increasing address order. A repeated line used to be accepted and counted
// its wear twice in the per-bank totals while WearOf and WearStats saw it
// once.
func TestLoadRejectsUnorderedAddresses(t *testing.T) {
	d := testDevice()
	line := bytes.Repeat([]byte{0x5a}, config.LineSize)
	for name, addrs := range map[string][]uint64{
		"repeated":   {3, 3},
		"descending": {9, 4},
	} {
		blob := encodeV1(d.Lines(), []savedLine{{addrs[0], 5, line}, {addrs[1], 5, line}})
		if err := d.LoadContents(bytes.NewReader(blob)); err == nil {
			t.Fatalf("%s addresses %v accepted", name, addrs)
		}
	}
	blob := encodeV1(d.Lines(), []savedLine{{3, 5, line}, {4, 5, line}})
	if err := d.LoadContents(bytes.NewReader(blob)); err != nil {
		t.Fatalf("ascending addresses rejected: %v", err)
	}
}

// TestWriteReadIntoZeroAllocs pins the steady-state device path: once a
// line's page exists, Write and ReadInto allocate nothing.
func TestWriteReadIntoZeroAllocs(t *testing.T) {
	d := testDevice()
	line := make([]byte, config.LineSize)
	rng.New(3).Fill(line)
	buf := make([]byte, config.LineSize)
	for a := uint64(0); a < pageLines; a++ {
		d.Write(0, a, line)
	}
	var now units.Time
	addr := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		now = d.Write(now, addr, line)
		addr = (addr + 1) % pageLines
	}); n != 0 {
		t.Fatalf("Write allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		now = d.ReadInto(now, addr, buf)
		addr = (addr + 1) % pageLines
	}); n != 0 {
		t.Fatalf("ReadInto allocates %v per call", n)
	}
}

// TestNewAllocatesNoStore: pages come on first write, so a device with the
// 16 GB default geometry costs a few hundred bytes to build.
func TestNewAllocatesNoStore(t *testing.T) {
	cfg := config.Default()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(cfg.NVM, cfg.Timing, cfg.Energy)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("New allocated %d bytes for a %d-line device", grew, d.Lines())
	}
}
