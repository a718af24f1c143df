package cme

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"

	"dewrite/internal/config"
	"dewrite/internal/rng"
)

func testEngine(t testing.TB) *Engine {
	t.Helper()
	return MustNewEngine([]byte("dewrite-test-key"))
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := testEngine(t)
	src := rng.New(1)
	plain := make([]byte, config.LineSize)
	ct := make([]byte, config.LineSize)
	pt := make([]byte, config.LineSize)
	for i := 0; i < 100; i++ {
		src.Fill(plain)
		addr, ctr := src.Uint64(), src.Uint64()>>8
		e.EncryptLine(ct, plain, addr, ctr)
		e.DecryptLine(pt, ct, addr, ctr)
		if !bytes.Equal(pt, plain) {
			t.Fatalf("round trip failed at iteration %d", i)
		}
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	e := testEngine(t)
	plain := make([]byte, config.LineSize)
	ct := make([]byte, config.LineSize)
	e.EncryptLine(ct, plain, 0x1000, 1)
	if bytes.Equal(ct, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
}

func TestPadUniqueAcrossAddresses(t *testing.T) {
	e := testEngine(t)
	p1 := make([]byte, config.LineSize)
	p2 := make([]byte, config.LineSize)
	e.Pad(p1, 0x100, 5)
	e.Pad(p2, 0x200, 5)
	if bytes.Equal(p1, p2) {
		t.Fatal("same pad for different addresses")
	}
}

func TestPadUniqueAcrossCounters(t *testing.T) {
	e := testEngine(t)
	p1 := make([]byte, config.LineSize)
	p2 := make([]byte, config.LineSize)
	e.Pad(p1, 0x100, 5)
	e.Pad(p2, 0x100, 6)
	if bytes.Equal(p1, p2) {
		t.Fatal("same pad for different counters")
	}
}

func TestPadBlocksDistinctWithinLine(t *testing.T) {
	e := testEngine(t)
	pad := make([]byte, config.LineSize)
	e.Pad(pad, 42, 7)
	for i := 0; i < config.AESBlocksPerLine; i++ {
		for j := i + 1; j < config.AESBlocksPerLine; j++ {
			if bytes.Equal(pad[i*16:(i+1)*16], pad[j*16:(j+1)*16]) {
				t.Fatalf("pad blocks %d and %d identical", i, j)
			}
		}
	}
}

func TestPadDeterministic(t *testing.T) {
	e := testEngine(t)
	p1 := make([]byte, config.LineSize)
	p2 := make([]byte, config.LineSize)
	e.Pad(p1, 9, 9)
	e.Pad(p2, 9, 9)
	if !bytes.Equal(p1, p2) {
		t.Fatal("pad is not deterministic")
	}
}

func TestDiffusionUnderCounterBump(t *testing.T) {
	// Rewriting the same plaintext with a bumped counter must change about
	// half the ciphertext bits — the effect that defeats DCW/FNW.
	e := testEngine(t)
	src := rng.New(2)
	plain := make([]byte, config.LineSize)
	src.Fill(plain)
	ct1 := make([]byte, config.LineSize)
	ct2 := make([]byte, config.LineSize)
	e.EncryptLine(ct1, plain, 0x40, 1)
	e.EncryptLine(ct2, plain, 0x40, 2)
	flips := 0
	for i := range ct1 {
		flips += popcount(ct1[i] ^ ct2[i])
	}
	frac := float64(flips) / float64(config.LineBits)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("bit-flip fraction %.3f, want ~0.5", frac)
	}
}

func TestDirectEncryptRoundTrip(t *testing.T) {
	e := testEngine(t)
	src := rng.New(3)
	f := func(seed uint64) bool {
		src.Reseed(seed)
		plain := make([]byte, config.LineSize)
		src.Fill(plain)
		ct := make([]byte, config.LineSize)
		pt := make([]byte, config.LineSize)
		e.DirectEncryptLine(ct, plain)
		if bytes.Equal(ct, plain) {
			return false
		}
		e.DirectDecryptLine(pt, ct)
		return bytes.Equal(pt, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInPlaceEncryption(t *testing.T) {
	e := testEngine(t)
	src := rng.New(4)
	line := make([]byte, config.LineSize)
	src.Fill(line)
	orig := append([]byte(nil), line...)
	e.EncryptLine(line, line, 77, 3)
	e.DecryptLine(line, line, 77, 3)
	if !bytes.Equal(line, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestBadLengthsPanic(t *testing.T) {
	e := testEngine(t)
	short := make([]byte, 16)
	full := make([]byte, config.LineSize)
	for name, f := range map[string]func(){
		"pad":     func() { e.Pad(short, 0, 0) },
		"encrypt": func() { e.EncryptLine(full, short, 0, 0) },
		"direct":  func() { e.DirectEncryptLine(short, full) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewEngineRejectsBadKey(t *testing.T) {
	if _, err := NewEngine(make([]byte, 5)); err == nil {
		t.Fatal("expected error for short key")
	}
}

func TestCounterStore(t *testing.T) {
	s := NewCounterStore()
	if s.Get(10) != 0 {
		t.Fatal("fresh counter not zero")
	}
	if s.Bump(10) != 1 || s.Bump(10) != 2 {
		t.Fatal("Bump sequence wrong")
	}
	if s.Get(10) != 2 {
		t.Fatal("Get after Bump wrong")
	}
	if s.Get(11) != 0 {
		t.Fatal("unrelated counter affected")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestCounterMonotoneProperty(t *testing.T) {
	s := NewCounterStore()
	f := func(addr uint16, bumps uint8) bool {
		a := uint64(addr)
		before := s.Get(a)
		for i := 0; i < int(bumps); i++ {
			s.Bump(a)
		}
		return s.Get(a) == before+uint64(bumps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func BenchmarkEncryptLine(b *testing.B) {
	e := MustNewEngine(make([]byte, 16))
	line := make([]byte, config.LineSize)
	b.SetBytes(config.LineSize)
	for i := 0; i < b.N; i++ {
		e.EncryptLine(line, line, uint64(i), uint64(i))
	}
}

func saveCounters(t *testing.T, s *CounterStore) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// counterBlob assembles a saved store from (address, counter) pairs.
func counterBlob(pairs ...uint64) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(pairs)/2))
	for _, v := range pairs {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// TestCounterStoreRoundTrip: counters set out of order across page
// boundaries save in address order and load back to the same bytes.
func TestCounterStoreRoundTrip(t *testing.T) {
	s := NewCounterStore()
	for _, a := range []uint64{200, 3, 64, 63, 1000} {
		s.Bump(a)
	}
	s.Bump(64)
	s.Set(5, 9)
	s.Set(3, 0) // clears the entry
	s.Set(7, 0) // no entry to clear
	want := counterBlob(5, 9, 63, 1, 64, 2, 200, 1, 1000, 1)
	got := saveCounters(t, s)
	if !bytes.Equal(got, want) {
		t.Fatalf("SaveTo = %x, want %x", got, want)
	}
	if addrs := s.Addrs(); !reflect.DeepEqual(addrs, []uint64{5, 63, 64, 200, 1000}) || s.Len() != len(addrs) {
		t.Fatalf("Addrs = %v, Len = %d", addrs, s.Len())
	}
	back, err := LoadCounterStore(bytes.NewReader(got), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if again := saveCounters(t, back); !bytes.Equal(again, got) {
		t.Fatalf("reloaded store saves %x, want %x", again, got)
	}
}

// TestLoadCounterStoreRejects: SaveTo never writes a repeated or unordered
// address, a zero counter, or an address beyond the memory, so none loads.
// Loaded, a repeated address would keep its last value under a header count
// that no longer matches, and a zero counter would be an entry that Len,
// Addrs and SaveTo count while Get reports 0.
func TestLoadCounterStoreRejects(t *testing.T) {
	cases := map[string][]byte{
		"repeated address":  counterBlob(4, 1, 4, 2),
		"unordered address": counterBlob(9, 1, 4, 2),
		"zero counter":      counterBlob(4, 0),
		"beyond lines":      counterBlob(4, 1, 64, 1),
		"count over lines":  binary.LittleEndian.AppendUint64(nil, 65),
		"truncated":         counterBlob(4, 1)[:20],
	}
	for name, raw := range cases {
		if _, err := LoadCounterStore(bytes.NewReader(raw), 64); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
