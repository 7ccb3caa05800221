package token

import (
	"errors"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/params"
)

// Verifier is the redemption side: one prepared pairing per token plus
// a double-spend ledger. It holds only the issuance PUBLIC key — a
// gating relay or front tier can verify redemptions without the power
// to mint tokens.
type Verifier struct {
	set *params.Set
	pk  backend.PreparedKey
	led *Ledger
}

// NewVerifier builds a redemption verifier over the issuance public
// key and a spend ledger (NewLedger for in-memory, OpenLedger for a
// durable spend.log).
func NewVerifier(set *params.Set, pub bls.PublicKey, led *Ledger) *Verifier {
	if led == nil {
		led = NewLedger()
	}
	return &Verifier{set: set, pk: set.B.PrepareKey(pub.G, pub.SG, pub.SG2), led: led}
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
//  2. prepared pairing verification — ê(G, S) = ê(xG, H1(seed));
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
	if !bls.VerifyPrepared(v.set, v.pk, v.set.B.HashToG2(Domain, t.Seed[:]), t.Sig) {
		return ErrBadToken
	}
	return v.led.Spend(id)
}

// errLedgerClosed distinguishes shutdown races from real failures in
// tests.
var errLedgerClosed = errors.New("token: spend ledger is closed")
