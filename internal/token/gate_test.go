package token

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/params"
	"timedrelease/internal/wire"
)

// gateFixture is a BLS12-381 issuer under a fixed scalar, three of its
// tokens minted from a seeded rng, and both gate verifiers over their
// own ledgers: keyed by the issuer, and on its public key alone.
type gateFixture struct {
	set            *params.Set
	codec          *wire.Codec
	toks           []Token
	keyed, pairing *Verifier
}

func newGateFixture(tb testing.TB) gateFixture {
	tb.Helper()
	set := params.MustPreset(params.PresetBLS12381)
	key, err := bls.NewPrivateKey(set, set.G, big.NewInt(0x2468ace))
	if err != nil {
		tb.Fatal(err)
	}
	iss, err := NewIssuer(set, key)
	if err != nil {
		tb.Fatal(err)
	}
	pending, blinded, err := Blind(set, rand.New(rand.NewSource(51)), 3)
	if err != nil {
		tb.Fatal(err)
	}
	signed, err := iss.SignBlinded(blinded)
	if err != nil {
		tb.Fatal(err)
	}
	toks, err := NewKey(set, iss.Public()).Unblind(pending, signed)
	if err != nil {
		tb.Fatal(err)
	}
	return gateFixture{
		set:     set,
		codec:   wire.NewCodec(set),
		toks:    toks,
		keyed:   NewVerifier(set, iss.Public(), NewLedger()).KeyedBy(iss),
		pairing: NewVerifier(set, iss.Public(), NewLedger()),
	}
}

// verdict maps a redemption error to the gate's status class.
func verdict(tb testing.TB, err error) int {
	tb.Helper()
	switch {
	case err == nil:
		return 200
	case errors.Is(err, ErrMalformed):
		return 400
	case errors.Is(err, ErrBadToken):
		return 403
	case errors.Is(err, ErrDoubleSpend):
		return 409
	}
	tb.Fatalf("unexpected redemption error %v", err)
	return 0
}

// pointOff is the offset of the point field in an encoded token.
const pointOff = 2 + SeedLen

// gateInputs are encoded tokens around toks[1]: the honest encoding and
// its mutations, toks[0] (spent before the first input) and toks[0]'s
// seed beside a point that does not decode.
func (fx gateFixture) gateInputs() map[string][]byte {
	honest := EncodeToken(fx.codec, fx.toks[1])
	with := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(honest)) }
	flip := func(mask byte) []byte {
		return with(func(b []byte) []byte { b[pointOff] ^= mask; return b })
	}
	var p [48]byte
	fx.set.P.FillBytes(p[:])
	identity := make([]byte, fx.set.B.PointLen(backend.G2))
	identity[0] = 0xc0
	spent := EncodeToken(fx.codec, fx.toks[0])
	return map[string][]byte{
		"honest":           honest,
		"compression flag": flip(0x80),
		"infinity flag":    flip(0x40),
		"sign flag":        flip(0x20),
		"x.c1 = p": with(func(b []byte) []byte {
			copy(b[pointOff:], p[:])
			b[pointOff] |= honest[pointOff] & 0xe0
			return b
		}),
		"x.c0 = p":      with(func(b []byte) []byte { copy(b[pointOff+48:], p[:]); return b }),
		"identity":      append(honest[:pointOff:pointOff], identity...),
		"truncated":     honest[:len(honest)-1],
		"seed only":     honest[:pointOff],
		"extended":      append(bytes.Clone(honest), 0),
		"another seed":  append(EncodeToken(fx.codec, fx.toks[2])[:pointOff:pointOff], honest[pointOff:]...),
		"spent":         spent,
		"spent garbage": append(spent[:pointOff:pointOff], flip(0x80)[pointOff:]...),
		"empty":         nil,
	}
}

// TestRedeemEncodedOrder pins the gate's verdict on each input, on both
// verifiers: framing and point errors are 400, a spent seed is 409
// whatever its point, a valid point under the wrong signature is 403.
// No refusal grows a ledger.
func TestRedeemEncodedOrder(t *testing.T) {
	fx := newGateFixture(t)
	in := fx.gateInputs()
	want := map[string]int{
		"compression flag": 400, "infinity flag": 400, "sign flag": 403,
		"x.c1 = p": 400, "x.c0 = p": 400, "identity": 400,
		"truncated": 400, "seed only": 400, "extended": 400, "empty": 400,
		"another seed": 403, "spent": 409, "spent garbage": 409,
	}
	for _, v := range []*Verifier{fx.keyed, fx.pairing} {
		if err := v.Redeem(fx.toks[0]); err != nil {
			t.Fatal(err)
		}
		for name, status := range want {
			if got := verdict(t, v.RedeemEncoded(in[name])); got != status {
				t.Errorf("keyed=%v %s: %d, want %d", v.x != nil, name, got, status)
			}
		}
		if n := v.Ledger().Len(); n != 1 {
			t.Errorf("keyed=%v: refusals grew the ledger to %d", v.x != nil, n)
		}
		if err := v.RedeemEncoded(in["honest"]); err != nil {
			t.Errorf("keyed=%v: honest token: %v", v.x != nil, err)
		}
	}
}

// FuzzTokenGate is the differential fuzz of the gate on raw bytes: the
// keyed verifier (encodings first, a decode only on a mismatch) and the
// public-key verifier (decode, then the pairing) give every input the
// same verdict class, and only an admission grows a ledger. toks[0] is
// spent in both before the first input.
func FuzzTokenGate(f *testing.F) {
	fx := newGateFixture(f)
	for _, in := range fx.gateInputs() {
		f.Add(in)
	}
	for _, v := range []*Verifier{fx.keyed, fx.pairing} {
		if err := v.Redeem(fx.toks[0]); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nk, np := fx.keyed.Ledger().Len(), fx.pairing.Ledger().Len()
		k, p := verdict(t, fx.keyed.RedeemEncoded(data)), verdict(t, fx.pairing.RedeemEncoded(data))
		if k != p {
			t.Fatalf("keyed gate %d, pairing gate %d on %x", k, p, data)
		}
		grow := 0
		if k == 200 {
			grow = 1
		}
		if fx.keyed.Ledger().Len() != nk+grow || fx.pairing.Ledger().Len() != np+grow {
			t.Fatalf("verdict %d moved the ledgers from %d, %d to %d, %d", k, nk, np, fx.keyed.Ledger().Len(), fx.pairing.Ledger().Len())
		}
	})
}

// BenchmarkRedeem times the gate on one honest encoded token over a
// fresh ledger per redemption: keyed (hash, one G2 multiplication, an
// encoding compare) against pairing (decode, hash, pairing check).
func BenchmarkRedeem(b *testing.B) {
	fx := newGateFixture(b)
	enc := EncodeToken(fx.codec, fx.toks[1])
	for _, bc := range []struct {
		name string
		v    *Verifier
	}{{"keyed", fx.keyed}, {"pairing", fx.pairing}} {
		b.Run(bc.name, func(b *testing.B) {
			v := *bc.v
			for i := 0; i < b.N; i++ {
				v.led = NewLedger()
				if err := v.RedeemEncoded(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
