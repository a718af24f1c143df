package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// The dewrite-serve wire protocol, client side (cmd/dewrite-serve/proto.go
// is the server side):
//
//	request:  op(1) keyLen(2 BE) valLen(4 BE) deadlineMs(2 BE) key val
//	response: status(1) valLen(4 BE) val
const (
	opPut byte = 1
	opGet byte = 2

	statusOK byte = 0

	// maxResponse bounds a response value; the daemon's largest is a STATS
	// snapshot, which this client never requests.
	maxResponse = 1 << 20
)

// appendRequest appends one request frame with no deadline to dst.
func appendRequest(dst []byte, op byte, key string, val []byte) []byte {
	var hdr [9]byte
	hdr[0] = op
	binary.BigEndian.PutUint16(hdr[1:3], uint16(len(key)))
	binary.BigEndian.PutUint32(hdr[3:7], uint32(len(val)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, key...)
	return append(dst, val...)
}

// readResponse reads one response frame, reusing buf for the value.
func readResponse(r io.Reader, buf []byte) (status byte, val []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > maxResponse {
		return 0, nil, fmt.Errorf("response length %d exceeds %d", n, maxResponse)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	val = buf[:n]
	if _, err = io.ReadFull(r, val); err != nil {
		return 0, nil, err
	}
	return hdr[0], val, nil
}

// kvConn is one synchronous client connection.
type kvConn struct {
	c    net.Conn
	r    *bufio.Reader
	out  []byte
	resp []byte
}

func dialKV(addr string) (*kvConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &kvConn{c: c, r: bufio.NewReader(c)}, nil
}

// do sends one request and waits for its response. The returned value is
// valid until the next call.
func (k *kvConn) do(op byte, key string, val []byte) (byte, []byte, error) {
	k.out = appendRequest(k.out[:0], op, key, val)
	if _, err := k.c.Write(k.out); err != nil {
		return 0, nil, err
	}
	status, v, err := readResponse(k.r, k.resp)
	if cap(v) > cap(k.resp) {
		k.resp = v[:0]
	}
	return status, v, err
}

func (k *kvConn) Close() error { return k.c.Close() }
