package core

import (
	"crypto/rand"
	"fmt"
	"io"
	"sync"

	"timedrelease/internal/backend"
	"timedrelease/internal/rohash"
)

// Encryptor amortises the expensive parts of encryption across many
// messages to the same receiver:
//
//   - the public-key well-formedness check (two Miller loops) runs once
//     at construction instead of per message;
//   - for each release label, the pairing base g_T = ê(asG, H1(T)) is
//     computed once and cached; subsequent messages need only a G1
//     scalar multiplication (for U = rG) and a G2 exponentiation
//     K = g_T^r — no Miller loop at all.
//
// Both paths produce EXACTLY the ciphertext distribution of
// Scheme.Encrypt / Scheme.EncryptCCA (same K for the same r, because
// ê(r·asG, H1(T)) = ê(asG, H1(T))^r); agreement is pinned by tests and
// the speedup is measured in experiment E11. An Encryptor is safe for
// concurrent use.
type Encryptor struct {
	sc   *Scheme
	spub ServerPublicKey
	upub UserPublicKey

	mu    sync.Mutex
	bases map[string]backend.GT // label → ê(asG, H1(label))
}

// NewEncryptor verifies the receiver's public key once and returns a
// caching encryptor for the (server, receiver) pair.
func (sc *Scheme) NewEncryptor(spub ServerPublicKey, upub UserPublicKey) (*Encryptor, error) {
	if !sc.VerifyUserPublicKey(spub, upub) {
		return nil, ErrInvalidPublicKey
	}
	return &Encryptor{
		sc:    sc,
		spub:  spub,
		upub:  upub,
		bases: make(map[string]backend.GT),
	}, nil
}

// base returns (computing and caching if needed) ê(asG, H1(label)),
// applying the same §5.1 item 6 label check as Scheme.Encrypt.
func (e *Encryptor) base(label string) (backend.GT, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g, ok := e.bases[label]; ok {
		return g, nil
	}
	h := e.sc.hashLabel(label)
	if !e.sc.safePoint(e.spub, h) {
		return nil, ErrUnsafeLabel
	}
	g := e.sc.Set.B.Pair(e.upub.ASG, h)
	e.bases[label] = g
	return g, nil
}

// Encrypt produces a basic (CPA) ciphertext, byte-compatible with
// Scheme.Encrypt.
func (e *Encryptor) Encrypt(rng io.Reader, label string, msg []byte) (*Ciphertext, error) {
	r, err := e.sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("tre: sampling encryption randomness: %w", err)
	}
	base, err := e.base(label)
	if err != nil {
		return nil, err
	}
	u := e.sc.mulG(e.spub.G, r)
	// Pairing values are unitary (norm 1 after the final exponentiation),
	// so the signed-window ladder with free inversion applies.
	k := e.sc.Set.B.GTExpUnitary(base, r)
	return &Ciphertext{U: u, V: rohash.XOR(msg, e.sc.maskH2(k, len(msg)))}, nil
}

// EncryptCCA produces a Fujisaki–Okamoto ciphertext, byte-compatible
// with Scheme.EncryptCCA.
func (e *Encryptor) EncryptCCA(rng io.Reader, label string, msg []byte) (*CCACiphertext, error) {
	if rng == nil {
		rng = rand.Reader
	}
	sigma := make([]byte, seedLen)
	if _, err := io.ReadFull(rng, sigma); err != nil {
		return nil, fmt.Errorf("tre: sampling FO seed: %w", err)
	}
	r := rohash.ToScalarNonZero("TRE-H3", rohash.Concat(sigma, msg), e.sc.Set.Q)
	base, err := e.base(label)
	if err != nil {
		return nil, err
	}
	u := e.sc.mulG(e.spub.G, r)
	k := e.sc.Set.B.GTExpUnitary(base, r) // unitary: pairing value
	return &CCACiphertext{
		U: u,
		W: rohash.XOR(sigma, e.sc.maskH2(k, seedLen)),
		V: rohash.XOR(msg, rohash.Expand("TRE-H4", sigma, len(msg))),
	}, nil
}

// CachedLabels reports how many label bases the encryptor holds.
func (e *Encryptor) CachedLabels() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.bases)
}
