package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// HybridCiphertext is a KEM/DEM ciphertext for bulk messages: the TRE
// pairing value acts as a key-encapsulation, and the payload is sealed
// with AES-256-CTR + HMAC-SHA-256 (encrypt-then-MAC). This is the
// production path for large plaintexts — the random-oracle XOR stream of
// the basic scheme is faithful to the paper but hashes the whole message
// length, while AES-CTR runs an order of magnitude faster on bulk data.
type HybridCiphertext struct {
	U   curve.Point // rG
	Box []byte      // IV ‖ AES-CTR body ‖ HMAC tag
}

const (
	hybridKeyLen = 64 // 32 bytes AES-256 + 32 bytes HMAC
	hybridIVLen  = aes.BlockSize
	hybridTagLen = sha256.Size
)

// EncryptHybrid encapsulates a DEM key to (receiver, label) and seals
// msg under it.
func (sc *Scheme) EncryptHybrid(rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) (*HybridCiphertext, error) {
	if rng == nil {
		rng = rand.Reader
	}
	r, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("tre: sampling encryption randomness: %w", err)
	}
	u, k, err := sc.encapsulateChecked(spub, upub, label, r)
	if err != nil {
		return nil, err
	}
	box, err := demSeal(rng, sc.demKey(k), msg)
	if err != nil {
		return nil, err
	}
	return &HybridCiphertext{U: u, Box: box}, nil
}

// DecryptHybrid decapsulates with (private key, update) and opens the
// DEM. A wrong update or tampered box fails the MAC check.
func (sc *Scheme) DecryptHybrid(upriv *UserKeyPair, upd KeyUpdate, ct *HybridCiphertext) ([]byte, error) {
	if ct == nil || !sc.Set.B.IsOnCurve(backend.G1, ct.U) || ct.U.IsInfinity() {
		return nil, ErrInvalidCiphertext
	}
	k := sc.decapsulate(upriv, upd, ct.U)
	return demOpen(sc.demKey(k), ct.Box)
}

// demKey derives the 64-byte DEM key from the pairing value.
func (sc *Scheme) demKey(k backend.GT) []byte {
	return rohash.Expand("TRE-DEM", sc.Set.B.GTBytes(k), hybridKeyLen)
}

// demSeal encrypts msg with AES-256-CTR and appends an HMAC-SHA-256 tag
// over IV‖body (encrypt-then-MAC).
func demSeal(rng io.Reader, key, msg []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:32])
	if err != nil {
		return nil, fmt.Errorf("tre: dem cipher: %w", err)
	}
	out := make([]byte, hybridIVLen+len(msg), hybridIVLen+len(msg)+hybridTagLen)
	if _, err := io.ReadFull(rng, out[:hybridIVLen]); err != nil {
		return nil, fmt.Errorf("tre: sampling IV: %w", err)
	}
	cipher.NewCTR(block, out[:hybridIVLen]).XORKeyStream(out[hybridIVLen:], msg)
	mac := hmac.New(sha256.New, key[32:])
	mac.Write(out)
	return mac.Sum(out), nil
}

// demOpen verifies the tag and decrypts.
func demOpen(key, box []byte) ([]byte, error) {
	if len(box) < hybridIVLen+hybridTagLen {
		return nil, ErrInvalidCiphertext
	}
	body, tag := box[:len(box)-hybridTagLen], box[len(box)-hybridTagLen:]
	mac := hmac.New(sha256.New, key[32:])
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, ErrAuthFailed
	}
	block, err := aes.NewCipher(key[:32])
	if err != nil {
		return nil, fmt.Errorf("tre: dem cipher: %w", err)
	}
	msg := make([]byte, len(body)-hybridIVLen)
	cipher.NewCTR(block, body[:hybridIVLen]).XORKeyStream(msg, body[hybridIVLen:])
	return msg, nil
}
