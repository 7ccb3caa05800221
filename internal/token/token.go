// Package token implements Privacy Pass-style blind access tokens
// over the pairing backend: anonymous metered access to the serving
// tier (docs/TOKENS.md).
//
// The paper's headline property is that subscribers stay anonymous
// against a passive server, but a production deployment still needs
// rate limiting and abuse control — and naive per-client metering
// would destroy exactly the anonymity the paper sells. Blind BLS
// squares that circle:
//
//	client:  seed ← 32 random bytes, T = H1(TokenDomain, seed) ∈ G2
//	         r ← [1, q-1],  B = T + r·G2       (blinded request)
//	server:  S′ = x·B                          (blind signature, key x)
//	client:  S = S′ − r·(x·G2) = x·T           (unblinded token)
//	redeem:  present (seed, S); a gate checks ê(G, S) = ê(xG, H1(seed)),
//	         or S = x·H1(seed) when it holds x (Verifier.KeyedBy)
//
// This is Boldyreva's additive blinding (PKC 2003). Both client
// multiplications are by fixed bases, G2 and the key's x·G2
// (bls.PublicKey.SG2; x·G on Type-1), which BLS12-381 walks on tables
// of their multiples (Backend.PrepareBase); a Key keeps the x·G2 table.
// The server's view of an issuance is a uniformly random G2 point B:
// for ANY candidate token T′ there is exactly one blinding factor r′
// with T′ + r′·G2 = B, so B is information-theoretically independent of
// which token it blinds (pinned by TestBlindingUnlinkabilityWitness).
// The redemption check is the very pairing equation the scheme already
// uses for key updates, so both the Symmetric and BLS12-381 backends
// verify tokens on the prepared fixed-argument path. The gate beside
// the issuer owns x and recomputes x·H1(seed) instead (one G2
// multiplication), comparing encodings in constant time.
//
// SECURITY — key and domain separation. Blind issuance signs an
// attacker-chosen group element. If the issuance key were the
// time-server key s, a client could submit B = H1(TimeDomain, future
// label) and walk away with s·H1(T_future): the decryption key for a
// not-yet-released epoch. The issuance key x MUST therefore be a
// dedicated key, never the timed-release key (timeserver.NewServer
// refuses the configuration), and token hashing uses its own oracle
// domain. See docs/TOKENS.md for the full threat model.
package token

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// Domain is the hash-to-curve oracle domain for token points,
// deliberately distinct from core.TimeDomain: a blind signature on
// H1(Domain, ·) can never collide with a key update s·H1(TimeDomain, T).
const Domain = "access-token"

// SeedLen is the token preimage length.
const SeedLen = 32

// ErrBadToken reports a redemption whose signature fails verification
// against the issuance key.
var ErrBadToken = errors.New("token: signature fails verification against issuance key")

// ErrDoubleSpend reports a token that was already redeemed.
var ErrDoubleSpend = errors.New("token: already spent")

// Token is an unblinded access credential: the random seed and the
// issuer's signature x·H1(Domain, seed). It carries no identity and is
// unlinkable to the issuance that produced it.
type Token struct {
	Seed [SeedLen]byte
	Sig  curve.Point // x·H1(Domain, seed) ∈ G2
}

// ID is the double-spend ledger key: SHA-256 of the seed. Hashing
// keeps raw seeds out of the on-disk spend log (a leaked log must not
// be a bag of replayable credentials — the signature is still needed,
// but defense in depth is cheap here).
func (t Token) ID() [32]byte { return sha256.Sum256(t.Seed[:]) }

// Pending is a blinded, not-yet-signed token held by the client
// between Blind and Unblind: the seed, the blinding factor and the
// token point Blind hashed the seed to, kept so Unblind does not hash
// it again (a Pending built without T is hashed there).
type Pending struct {
	Seed [SeedLen]byte
	R    *big.Int    // blinding factor r ∈ [1, q-1]
	T    curve.Point // H1(Domain, Seed)
}

// Blind generates n fresh token preimages and returns their blinded
// curve points B_i = H1(Domain, seed_i) + r_i·G2 alongside the pending
// state needed to unblind the issuer's response. Each token draws its
// seed, then its blinding factor, from rng.
func Blind(set *params.Set, rng io.Reader, n int) ([]Pending, []curve.Point, error) {
	if n <= 0 {
		return nil, nil, errors.New("token: batch size must be positive")
	}
	pending := make([]Pending, n)
	blinded := make([]curve.Point, n)
	for i := range pending {
		if _, err := io.ReadFull(cryptoRand(rng), pending[i].Seed[:]); err != nil {
			return nil, nil, fmt.Errorf("token: drawing seed: %w", err)
		}
		r, err := set.B.RandScalar(rng)
		if err != nil {
			return nil, nil, fmt.Errorf("token: drawing blinding factor: %w", err)
		}
		pending[i].R = r
		pending[i].T = set.B.HashToG2(Domain, pending[i].Seed[:])
		blinded[i] = blindPoint(set, pending[i].T, r)
	}
	return pending, blinded, nil
}

// blindPoint computes t + r·G2. Split out (and kept deterministic in r)
// so the unlinkability test can sweep explicit blinding factors.
func blindPoint(set *params.Set, t curve.Point, r *big.Int) curve.Point {
	return set.B.Add(backend.G2, t, set.B.PrepareBase(backend.G2, set.G2)(r))
}

// Key is an issuance public key made ready to unblind against: its
// prepared pairing check and x·G2 prepared for multiplication by the
// blinding factors. On BLS12-381 preparing x·G2 costs about what it
// saves on one batch of 8, so a client keeps its Key for as long as
// the issuer serves the same key (timeserver.Client does). Blind
// blinds by the canonical G2, so on Type-1 the key must be over the
// canonical generator (GenerateIssuer's); one over another generator
// unblinds nothing but ErrBadToken.
type Key struct {
	set *params.Set
	pk  backend.PreparedKey
	xG2 backend.BaseMul
}

// NewKey prepares pub for unblinding. It does not validate pub: decode
// it with wire.UnmarshalServerPublicKey first.
func NewKey(set *params.Set, pub bls.PublicKey) *Key {
	return &Key{set: set, pk: set.B.PrepareKey(pub.G, pub.SG, pub.SG2), xG2: set.B.PrepareBase(backend.G2, pub.SG2)}
}

// Unblind is Key.Unblind against pub, prepared for this one call.
// No production caller; kept for benchmark/ until ROADMAP item 23.
func Unblind(set *params.Set, pub bls.PublicKey, pending []Pending, signed []curve.Point) ([]Token, error) {
	return NewKey(set, pub).Unblind(pending, signed)
}

// Unblind removes each blinding from the signed blinded points and
// verifies the results against the issuance key before anything
// reaches the wallet: S = S′ − r·(x·G2) = x·(T + r·G2) − r·x·G2 = x·T,
// checked by ê(G, S) = ê(xG, T) for the whole batch in one blinded
// equation (bls.VerifyBatchHashed; every S is still subgroup-tested on
// its own). A malicious issuer returning garbage (or signing under a
// swapped key) yields ErrBadToken and no tokens here, never a dud
// credential spent later.
func (k *Key) Unblind(pending []Pending, signed []curve.Point) ([]Token, error) {
	if len(signed) != len(pending) {
		return nil, fmt.Errorf("token: issuer returned %d signatures for %d requests", len(signed), len(pending))
	}
	b := k.set.B
	hashes := make([]curve.Point, len(pending))
	sigs := make([]curve.Point, len(pending))
	for i, p := range pending {
		if p.R == nil || p.R.Sign() <= 0 {
			return nil, errors.New("token: pending entry has no blinding factor")
		}
		sigs[i] = b.Add(backend.G2, signed[i], b.Neg(backend.G2, k.xG2(p.R)))
		hashes[i] = p.T
		if p.T.IsInfinity() { // built by hand, no T kept
			hashes[i] = b.HashToG2(Domain, p.Seed[:])
		}
	}
	ok, err := bls.VerifyBatchHashed(k.set, k.pk, hashes, sigs, nil)
	if err != nil {
		return nil, fmt.Errorf("token: verifying issuance: %w", err)
	}
	if !ok {
		return nil, ErrBadToken
	}
	toks := make([]Token, len(pending))
	for i, p := range pending {
		toks[i] = Token{Seed: p.Seed, Sig: sigs[i]}
	}
	return toks, nil
}

// cryptoRand substitutes crypto/rand for a nil reader, mirroring the
// backend's RandScalar convention.
func cryptoRand(rng io.Reader) io.Reader {
	if rng != nil {
		return rng
	}
	return rand.Reader
}
