package main

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// frameHeader builds a raw request header without writeRequest's length
// checks, so seeds can claim lengths the decoder must refuse.
func frameHeader(op byte, keyLen uint16, valLen uint32, deadlineMs uint16) []byte {
	hdr := make([]byte, 9)
	hdr[0] = op
	binary.BigEndian.PutUint16(hdr[1:3], keyLen)
	binary.BigEndian.PutUint32(hdr[3:7], valLen)
	binary.BigEndian.PutUint16(hdr[7:9], deadlineMs)
	return hdr
}

// FuzzReadRequest hammers the request frame decoder, the one parser that
// takes bytes straight off the network. Whatever arrives, readRequest must
// either fail cleanly or accept a frame that re-encodes through
// writeRequest to exactly the bytes it consumed. The input is decoded as a
// stream of pipelined frames until the first error.
func FuzzReadRequest(f *testing.F) {
	frame := func(op byte, key string, val []byte, deadlineMs uint16) []byte {
		var b bytes.Buffer
		if err := writeRequest(&b, op, key, val, deadlineMs); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	put := frame(OpPut, "user:42", []byte("hello"), 250)
	get := frame(OpGet, "user:42", nil, 0)
	stats := frame(OpStats, "", nil, 0)
	for _, seed := range [][]byte{
		put,
		get,
		stats,
		frame(OpPut, strings.Repeat("k", MaxKeyLen), bytes.Repeat([]byte{0xa5}, ValueCap), 65535),
		append(append(append([]byte(nil), put...), get...), stats...),
		frameHeader(OpPut, MaxKeyLen+1, 0, 0),     // key over its cap
		frameHeader(OpPut, 1, ValueCap+1, 0),      // value over its cap
		frameHeader(OpGet, 0xffff, 0xffffffff, 0), // both lengths maxed
		put[:5], // truncated header
		append(frameHeader(OpPut, 10, 4, 0), "abc"...), // truncated body
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		r := bytes.NewReader(input)
		for consumed := 0; ; {
			op, key, val, deadlineMs, err := readRequest(r)
			if err != nil {
				return // rejected cleanly
			}
			end := len(input) - r.Len()
			var re bytes.Buffer
			if err := writeRequest(&re, op, key, val, deadlineMs); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if !bytes.Equal(re.Bytes(), input[consumed:end]) {
				t.Fatalf("re-encoded frame %x differs from consumed bytes %x", re.Bytes(), input[consumed:end])
			}
			consumed = end
		}
	})
}
