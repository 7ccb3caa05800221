package token

import (
	"crypto/subtle"
	"errors"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/params"
)

// Verifier is the redemption side: one prepared pairing per token plus
// a double-spend ledger. Built by NewVerifier it holds only the issuance
// PUBLIC key — a gating relay or front tier can verify redemptions
// without the power to mint tokens. Keyed by its issuer (KeyedBy) it
// multiplies by x instead, with the same verdict on every token.
type Verifier struct {
	set *params.Set
	pub bls.PublicKey
	pk  backend.PreparedKey
	x   *big.Int // issuance scalar (KeyedBy); nil checks the pairing
	led *Ledger
}

// NewVerifier builds a redemption verifier over the issuance public
// key and a spend ledger (NewLedger for in-memory, OpenLedger for a
// durable spend.log).
func NewVerifier(set *params.Set, pub bls.PublicKey, led *Ledger) *Verifier {
	if led == nil {
		led = NewLedger()
	}
	return &Verifier{set: set, pub: pub, pk: set.B.PrepareKey(pub.G, pub.SG, pub.SG2), led: led}
}

// KeyedBy returns a verifier on v's ledger that redeems with iss's
// scalar if iss signs under v's public key, and v otherwise.
func (v *Verifier) KeyedBy(iss *Issuer) *Verifier {
	if b, pub := v.set.B, iss.Public(); !b.Equal(backend.G1, v.pub.G, pub.G) || !b.Equal(backend.G1, v.pub.SG, pub.SG) {
		return v
	}
	keyed := *v
	keyed.x = iss.key.S
	return &keyed
}

// Ledger exposes the spend ledger (metrics, shutdown).
func (v *Verifier) Ledger() *Ledger { return v.led }

// Redeem verifies and spends one token. Exactly one concurrent
// redemption of the same token succeeds; the rest get ErrDoubleSpend.
// The order is chosen for the hot paths:
//
//  1. spent check under the set's read lock — a replayed token is
//     rejected for the price of a map lookup, no pairing burned, and
//     never waits behind another redemption's fsync;
//  2. signature verification — ê(G, S) = ê(xG, H1(seed)), or keyed,
//     S = x·H1(seed) on encodings compared in constant time;
//  3. Ledger.Spend — atomic recheck under the ledger's Spend mutex,
//     durable append, then publish. Verification precedes Spend so garbage
//     tokens can never grow the ledger.
//
// A ledger persistence failure fails CLOSED (the error is returned and
// the token is not admitted): an admission the spend log cannot record
// would be replayable after a restart.
func (v *Verifier) Redeem(t Token) error {
	id := t.ID()
	if v.led.Spent(id) {
		return ErrDoubleSpend
	}
	if !v.verify(t) {
		return ErrBadToken
	}
	return v.led.Spend(id)
}

// verify is step 2 of Redeem. The keyed compare is constant-time: for a
// fresh seed, x·H1(seed) is a token the presenter may not hold.
func (v *Verifier) verify(t Token) bool {
	b := v.set.B
	h := b.HashToG2(Domain, t.Seed[:])
	if v.x == nil {
		return bls.VerifyPrepared(v.set, v.pk, h, t.Sig)
	}
	want := b.AppendPoint(nil, backend.G2, b.ScalarMult(backend.G2, v.x, h))
	return !t.Sig.IsInfinity() && subtle.ConstantTimeCompare(want, b.AppendPoint(nil, backend.G2, t.Sig)) == 1
}

// errLedgerClosed distinguishes shutdown races from real failures in
// tests.
var errLedgerClosed = errors.New("token: spend ledger is closed")
