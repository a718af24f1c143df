package hashes

import (
	"bytes"
	"testing"

	"dewrite/internal/rng"
)

func TestCRC32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0x00000000},
		{"a", 0xe8b7be43},
		{"abc", 0x352441c2},
		{"123456789", 0xcbf43926},
		{"The quick brown fox jumps over the lazy dog", 0x414fa339},
	}
	for _, c := range cases {
		if got := CRC32([]byte(c.in)); got != c.want {
			t.Errorf("CRC32(%q) = %#08x, want %#08x", c.in, got, c.want)
		}
	}
}

func TestCRC32LineSized(t *testing.T) {
	// The dedup logic always hashes 256 B lines; known answers for the edge
	// patterns (zeros, ones, a byte ramp), computed independently.
	ramp := make([]byte, 256)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	cases := []struct {
		name string
		line []byte
		want uint32
	}{
		{"zeros", make([]byte, 256), 0x0d968558},
		{"ones", bytes.Repeat([]byte{0xff}, 256), 0xfea8a821},
		{"ramp", ramp, 0x29058c73},
	}
	for _, c := range cases {
		if got := CRC32(c.line); got != c.want {
			t.Errorf("CRC32(%s line) = %#08x, want %#08x", c.name, got, c.want)
		}
	}
}

func TestCRC32SensitiveToSingleBit(t *testing.T) {
	line := make([]byte, 256)
	base := CRC32(line)
	for i := 0; i < 256; i++ {
		line[i] ^= 1
		if CRC32(line) == base {
			t.Fatalf("flipping byte %d did not change CRC", i)
		}
		line[i] ^= 1
	}
}

func TestSHA1KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	}
	for _, c := range cases {
		got := SHA1([]byte(c.in))
		if hex(got[:]) != c.want {
			t.Errorf("SHA1(%q) = %s, want %s", c.in, hex(got[:]), c.want)
		}
	}
}

func TestMD5KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "d41d8cd98f00b204e9800998ecf8427e"},
		{"a", "0cc175b9c0f1b6a831c399e269772661"},
		{"abc", "900150983cd24fb0d6963f7d28e17f72"},
		{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
		{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
	}
	for _, c := range cases {
		got := MD5([]byte(c.in))
		if hex(got[:]) != c.want {
			t.Errorf("MD5(%q) = %s, want %s", c.in, hex(got[:]), c.want)
		}
	}
}

func TestPaddingBoundaries(t *testing.T) {
	// Lengths around the 55/56/64-byte padding boundaries are the classic
	// Merkle–Damgård bug sites. Known answers for n bytes of 0xa5.
	cases := []struct {
		n         int
		sha1, md5 string
	}{
		{54, "495ff484ddc193af08088c240b90a58198e10179", "6c07e8b36261bdf76fd209232c8204ac"},
		{55, "6c938abb32ff50dd7f7f466cc5a769e62443c40f", "2cc6d369ed29824d4d6773abf071f793"},
		{56, "299939c0272c2ce298040088dcf89e3a2e2dba3d", "a0089308214de80d143ad475d20a43cb"},
		{57, "6979b87ea47a72b0a443938e52f52405804e2a39", "6eb9ca0784ee925c9ef188eff4635717"},
		{63, "777eded43f77834e84bf67ac0499eea07e4c4964", "14785634a92900e6dd3caa7fed09113b"},
		{64, "1e41f3a9d674da3f0a8d8c8930ac027d8af810a0", "f789afefff2e7e3c97537c40e730bb3e"},
		{65, "ce48847fa9956c287f5f19380821950c11071985", "725dbff640afcd6477b5bcc1e956faf6"},
		{119, "9ba38c8baf378a3106131ed0b0c3888fa5f32727", "ef6836a3b06f0ab3d8b5dd6481c6d810"},
		{120, "c6e53ac9e7f039d10cd81549a2cfde0c15f7cb9a", "434219f6afda007be05e5e08f80f2761"},
		{128, "4098a7faa26b92c98bca717105bb7acbfff2359e", "d9a6c21ff405ab62d6ada8cd0cb94914"},
	}
	for _, c := range cases {
		b := bytes.Repeat([]byte{0xa5}, c.n)
		if got := SHA1(b); hex(got[:]) != c.sha1 {
			t.Errorf("SHA1 at length %d = %s, want %s", c.n, hex(got[:]), c.sha1)
		}
		if got := MD5(b); hex(got[:]) != c.md5 {
			t.Errorf("MD5 at length %d = %s, want %s", c.n, hex(got[:]), c.md5)
		}
	}
}

func hex(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 2*len(b))
	for i, x := range b {
		out[2*i] = digits[x>>4]
		out[2*i+1] = digits[x&0xf]
	}
	return string(out)
}

func BenchmarkCRC32Line(b *testing.B) {
	line := make([]byte, 256)
	rng.New(5).Fill(line)
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		CRC32(line)
	}
}

func BenchmarkSHA1Line(b *testing.B) {
	line := make([]byte, 256)
	rng.New(6).Fill(line)
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		SHA1(line)
	}
}

func BenchmarkMD5Line(b *testing.B) {
	line := make([]byte, 256)
	rng.New(7).Fill(line)
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		MD5(line)
	}
}
