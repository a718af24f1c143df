// Package hashes provides the fingerprint functions DeWrite compares: the
// light-weight CRC-32 the dedup logic uses, and the cryptographic SHA-1 and
// MD5 digests traditional deduplication uses.
//
// All three delegate to the standard library, which is hardware-accelerated
// where the CPU has it. The digests are the standard ones, so the
// simulator's collision behaviour is real, not assumed; the simulated latency
// and energy of each hash are the config constants, so which code computes a
// digest never changes a simulated result.
package hashes

import (
	"crypto/md5"
	"crypto/sha1"
	"hash/crc32"
)

// CRC32 returns the IEEE CRC-32 of data. The standard library dispatches
// through a function variable, so data escapes to the heap: hash long-lived
// buffers on hot paths, not a fresh stack array per call.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// SHA1 returns the 160-bit SHA-1 digest of data.
func SHA1(data []byte) [20]byte { return sha1.Sum(data) }

// MD5 returns the 128-bit MD5 digest of data.
func MD5(data []byte) [16]byte { return md5.Sum(data) }
