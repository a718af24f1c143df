package aes

import (
	"testing"
	"testing/quick"

	"dewrite/internal/rng"
)

// FIPS-197 Appendix B vector.
func TestFIPS197Vector(t *testing.T) {
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	plain := []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
		0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
	want := []byte{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
		0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32}

	c := MustNew(key)
	got := make([]byte, 16)
	c.Encrypt(got, plain)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#02x, want %#02x", i, got[i], want[i])
		}
	}
	back := make([]byte, 16)
	c.Decrypt(back, got)
	for i := range plain {
		if back[i] != plain[i] {
			t.Fatalf("decrypt byte %d = %#02x, want %#02x", i, back[i], plain[i])
		}
	}
}

// FIPS-197 Appendix C.1 vector.
func TestFIPS197AppendixC(t *testing.T) {
	key := []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
		0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	plain := []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
		0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	want := []byte{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
		0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a}
	c := MustNew(key)
	got := make([]byte, 16)
	c.Encrypt(got, plain)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#02x, want %#02x", i, got[i], want[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := MustNew(make([]byte, 16))
	f := func(block [16]byte) bool {
		ct := make([]byte, 16)
		pt := make([]byte, 16)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		for i := range pt {
			if pt[i] != block[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffusion(t *testing.T) {
	// The paper's premise: flipping one plaintext bit flips ~half the
	// ciphertext bits. Expect 40-88 of 128 bits changed on every trial.
	c := MustNew([]byte("0123456789abcdef"))
	src := rng.New(2)
	block := make([]byte, 16)
	ct0 := make([]byte, 16)
	ct1 := make([]byte, 16)
	for trial := 0; trial < 100; trial++ {
		src.Fill(block)
		c.Encrypt(ct0, block)
		block[src.Intn(16)] ^= 1 << src.Intn(8)
		c.Encrypt(ct1, block)
		flips := 0
		for i := range ct0 {
			flips += popcount(ct0[i] ^ ct1[i])
		}
		if flips < 40 || flips > 88 {
			t.Fatalf("trial %d: %d bit flips, want ~64", trial, flips)
		}
	}
}

func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 15, 17, 24, 32} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key: no error", n)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(make([]byte, 3))
}

func TestShortBlockPanics(t *testing.T) {
	c := MustNew(make([]byte, 16))
	for _, f := range []func(){
		func() { c.Encrypt(make([]byte, 16), make([]byte, 15)) },
		func() { c.Encrypt(make([]byte, 15), make([]byte, 16)) },
		func() { c.Decrypt(make([]byte, 16), make([]byte, 15)) },
		func() { c.Decrypt(make([]byte, 15), make([]byte, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on short block")
				}
			}()
			f()
		}()
	}
}

func TestInPlaceEncrypt(t *testing.T) {
	c := MustNew(make([]byte, 16))
	buf := []byte("fedcba9876543210")
	want := make([]byte, 16)
	c.Encrypt(want, buf)
	c.Encrypt(buf, buf) // overlap: dst == src
	for i := range want {
		if buf[i] != want[i] {
			t.Fatal("in-place encryption differs")
		}
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func BenchmarkEncryptBlock(b *testing.B) {
	c := MustNew(make([]byte, 16))
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}
