// Package aes provides the AES-128 block cipher (FIPS-197) used by the
// simulator's encryption engines: counter-mode OTP generation for data lines
// and direct (ECB-per-block) encryption for metadata lines.
//
// It delegates to crypto/aes, which is hardware-accelerated where the CPU
// has it, and adds only the AES-128 key-length check. Ciphertexts are the
// standard ones; the simulated 96 ns AES latency and its energy are config
// constants, so which code computes a block never changes a simulated result.
package aes

import (
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = stdaes.BlockSize

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// Cipher is an expanded AES-128 key. Encrypt and Decrypt panic on blocks
// shorter than BlockSize and accept dst == src. Cipher is an interface, so
// the slices passed to its methods escape to the heap; see cme.Engine for
// how the hot path keeps caller buffers away from it.
type Cipher = cipher.Block

// New expands a 16-byte key. It returns an error for any other key length.
func New(key []byte) (Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: invalid key size %d, want %d", len(key), KeySize)
	}
	return stdaes.NewCipher(key)
}

// MustNew is New for compile-time-correct keys; it panics on error.
func MustNew(key []byte) Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}
