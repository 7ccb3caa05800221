package token

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/wire"
)

// Verifier is the redemption side: one prepared pairing per token plus
// a double-spend ledger. Built by NewVerifier it holds only the issuance
// PUBLIC key — a gating relay or front tier can verify redemptions
// without the power to mint tokens. Keyed by its issuer (KeyedBy) it
// multiplies by x instead, with the same verdict on every token.
type Verifier struct {
	set   *params.Set
	codec *wire.Codec
	pub   bls.PublicKey
	pk    backend.PreparedKey
	x     *big.Int // issuance scalar (KeyedBy); nil checks the pairing
	led   *Ledger
}

// NewVerifier builds a redemption verifier over the issuance public
// key and a spend ledger (NewLedger for in-memory, OpenLedger for a
// durable spend.log).
func NewVerifier(set *params.Set, pub bls.PublicKey, led *Ledger) *Verifier {
	if led == nil {
		led = NewLedger()
	}
	return &Verifier{set: set, codec: wire.NewCodec(set), pub: pub, pk: set.B.PrepareKey(pub.G, pub.SG, pub.SG2), led: led}
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

// Redeem verifies and spends one decoded token, by the body
// RedeemEncoded runs on wire bytes.
func (v *Verifier) Redeem(t Token) error { return v.redeem(t.Seed[:], nil, &t.Sig) }

// RedeemEncoded verifies and spends one wire-encoded token
// (EncodeToken's bytes); bad framing or a point that does not decode
// fails with ErrMalformed.
func (v *Verifier) RedeemEncoded(data []byte) error {
	seed, enc, err := v.codec.SplitToken(data)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return v.redeem(seed, enc, nil)
}

// redeem is the one redemption body, on a seed and either the encoding
// of the presented point (enc) or the point itself (sig). Exactly one
// concurrent redemption of the same token succeeds; the rest get
// ErrDoubleSpend. The order is chosen for the hot paths:
//
//  1. spent check under the set's read lock — a replayed token is
//     rejected for the price of a map lookup, no point work, and never
//     waits behind another redemption's fsync;
//  2. signature verification. Keyed, the encoding of x·H1(seed) is
//     compared with enc in constant time (for a fresh seed it is a
//     token the presenter may not hold), and the presented point is
//     decoded only on a mismatch, to tell a malformed point from a
//     wrong one. Otherwise the point is decoded and
//     ê(G, S) = ê(xG, H1(seed)) checked;
//  3. Ledger.Spend — atomic recheck under the ledger's Spend mutex,
//     durable append, then publish. Verification precedes Spend so garbage
//     tokens can never grow the ledger.
//
// A ledger persistence failure fails CLOSED (the error is returned and
// the token is not admitted): an admission the spend log cannot record
// would be replayable after a restart.
func (v *Verifier) redeem(seed, enc []byte, sig *curve.Point) error {
	id := sha256.Sum256(seed)
	if v.led.Spent(id) {
		return ErrDoubleSpend
	}
	b := v.set.B
	h := b.HashToG2(Domain, seed)
	if v.x != nil {
		if enc == nil {
			enc = b.AppendPoint(nil, backend.G2, *sig)
		}
		if want := b.ScalarMult(backend.G2, v.x, h); !want.IsInfinity() && subtle.ConstantTimeCompare(b.AppendPoint(nil, backend.G2, want), enc) == 1 {
			return v.led.Spend(id)
		}
	}
	if sig == nil {
		p, err := v.codec.UnmarshalTokenSig(enc)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		sig = &p
	}
	if v.x != nil || !bls.VerifyPrepared(v.set, v.pk, h, *sig) {
		return ErrBadToken
	}
	return v.led.Spend(id)
}

// errLedgerClosed distinguishes shutdown races from real failures in
// tests.
var errLedgerClosed = errors.New("token: spend ledger is closed")
