// Package core implements the paper's primary contribution: the TRE
// timed-release public-key encryption scheme of Chan–Blake §5.1,
// together with the CCA-secure variants (§5: Fujisaki–Okamoto and
// REACT), the key-insulation mechanism (§5.3.3) and server-change
// re-keying (§5.3.4).
//
// Roles and flow:
//
//   - The time server generates (G, sG) once, then — completely
//     passively — publishes the time-bound key update I_T = s·H1(T) when
//     each instant T arrives. One update serves every user.
//   - A user generates private a and public key (aG, a·sG).
//   - A sender encrypts to (receiver public key, release label T) with
//     no server interaction: C = ⟨rG, M ⊕ H2(ê(r·asG, H1(T)))⟩.
//   - The receiver decrypts with private key a and the (public) update:
//     K' = ê(U, I_T)^a.
//
// Decryption therefore requires BOTH the receiver's private key and the
// server's update — neither alone suffices, the server never learns who
// communicates, and one broadcast update unlocks every ciphertext with
// that release time.
package core

import (
	"errors"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/curve"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// TimeDomain is the H1 domain-separation tag for time labels. Key
// updates and encryption must agree on it, and it is distinct from every
// other oracle in the repository (identities, policies, HIBE nodes).
const TimeDomain = "time-label"

// Errors returned by the scheme.
var (
	ErrInvalidPublicKey  = errors.New("tre: user public key fails the pairing well-formedness check")
	ErrInvalidUpdate     = errors.New("tre: time-bound key update fails verification")
	ErrInvalidCiphertext = errors.New("tre: ciphertext is malformed or inconsistent")
	ErrLabelMismatch     = errors.New("tre: key update is for a different label")
	ErrAuthFailed        = errors.New("tre: ciphertext integrity check failed")
	ErrUnsafeLabel       = errors.New("tre: release label hashes onto the server generator (paper §5.1 item 6); perturb the label")
)

// Scheme binds the TRE algorithms to a parameter set. It holds the two
// precomputations that pay off across calls, and nothing else: a
// process verifies against one server key and multiplies one fixed
// base, the generator. A Scheme is safe for concurrent use.
type Scheme struct {
	Set *params.Set

	// key is the prepared server key behind VerifyUpdate and the
	// user-key checks. A different key (server change, §5.3.4) rebuilds
	// and replaces it.
	key atomic.Pointer[preparedSlot]

	// gTable is the fixed-base table of Set.G, built on first use.
	gOnce  sync.Once
	gTable backend.BaseTable

	// pairings counts pairing evaluations (Miller loop + final exp); nil
	// until Instrument, and obs counters no-op on nil.
	pairings *obs.Counter
}

// preparedSlot is one server key with its pairing precomputation.
type preparedSlot struct {
	g, sg, sg2 curve.Point
	pk         backend.PreparedKey
}

// Instrument registers the scheme's counter on r (core.pairings, see
// docs/OBSERVABILITY.md) and starts recording. Call before concurrent
// use; returns sc for chaining.
func (sc *Scheme) Instrument(r *obs.Registry) *Scheme {
	sc.pairings = r.Counter("core.pairings")
	return sc
}

// NewScheme returns a TRE scheme instance over the given parameters.
func NewScheme(set *params.Set) *Scheme {
	return &Scheme{Set: set}
}

// preparedKey returns the pairing precomputation for a server key: the
// slot's when it holds the same three points, otherwise a new one that
// replaces it. Goroutines racing on a cold slot may each build one.
func (sc *Scheme) preparedKey(spub ServerPublicKey) backend.PreparedKey {
	b := sc.Set.B
	if s := sc.key.Load(); s != nil && b.Equal(backend.G1, s.g, spub.G) &&
		b.Equal(backend.G1, s.sg, spub.SG) && b.Equal(backend.G2, s.sg2, spub.SG2) {
		return s.pk
	}
	s := &preparedSlot{g: spub.G, sg: spub.SG, sg2: spub.SG2, pk: b.PrepareKey(spub.G, spub.SG, spub.SG2)}
	sc.key.Store(s)
	return s.pk
}

// mulG returns k·g for a G1 point g: on the generator table when g is
// Set.G, by a plain ScalarMult for any other base.
func (sc *Scheme) mulG(g curve.Point, k *big.Int) curve.Point {
	b := sc.Set.B
	if !b.Equal(backend.G1, g, sc.Set.G) {
		return b.ScalarMult(backend.G1, k, g)
	}
	sc.gOnce.Do(func() { sc.gTable = b.PrecomputeBase(sc.Set.G) })
	return b.ScalarMultBase(sc.gTable, k)
}

// ServerPublicKey is the time server's public key PK_S = (G, sG),
// plus — on asymmetric backends — the G2 mirror sG2 = s·G2 that the
// user-key well-formedness check pairs against. It IS the BLS
// verification key: a key update is a BLS signature on the label.
type ServerPublicKey = bls.PublicKey

// ServerKeyPair holds the time server's private scalar and public key.
type ServerKeyPair = bls.PrivateKey

// ServerKeyGen generates a time-server key pair over the canonical
// generator of the parameter set.
func (sc *Scheme) ServerKeyGen(rng io.Reader) (*ServerKeyPair, error) {
	return bls.GenerateKey(sc.Set, rng)
}

// KeyUpdate is the time-bound key update I_T = s·H1(T): a BLS short
// signature on the time label, identical for all users, and
// self-authenticating against the server public key.
type KeyUpdate struct {
	Label string
	Point curve.Point // s·H1(Label)
}

// IssueUpdate produces the update for a label. In deployment this is
// called by the time server exactly when the labelled instant arrives —
// the scheme itself has no notion of clocks (see internal/timeserver).
func (sc *Scheme) IssueUpdate(server *ServerKeyPair, label string) KeyUpdate {
	return KeyUpdate{Label: label, Point: server.Sign(sc.Set, TimeDomain, []byte(label))}
}

// VerifyUpdate checks the self-authentication equation
// ê(G, I_T) = ê(sG, H1(T)). Both first pairing arguments are the fixed
// server key, so the check runs on the scheme's prepared key.
func (sc *Scheme) VerifyUpdate(spub ServerPublicKey, u KeyUpdate) bool {
	sc.pairings.Add(2) // one pairing per side of the check
	return bls.VerifyPrepared(sc.Set, sc.preparedKey(spub), sc.hashLabel(u.Label), u.Point)
}

// VerifyUpdateBatch checks many updates against one blinded batched
// pairing equation — two pairings total instead of two per update. It
// only reports whether the whole batch verifies; callers wanting to
// locate an offender fall back to per-update VerifyUpdate.
func (sc *Scheme) VerifyUpdateBatch(spub ServerPublicKey, updates []KeyUpdate) (bool, error) {
	if len(updates) == 0 {
		return true, nil
	}
	msgs := make([][]byte, len(updates))
	sigs := make([]curve.Point, len(updates))
	for i, u := range updates {
		msgs[i] = []byte(u.Label)
		sigs[i] = u.Point
	}
	sc.pairings.Add(2) // the whole batch collapses to one two-pairing check
	// bls.VerifyBatch hashes the labels itself, inside its worker pool:
	// a cold catch-up must not serialise H1.
	return bls.VerifyBatch(sc.Set, sc.preparedKey(spub), TimeDomain, msgs, sigs, nil)
}

// VerifyUpdateAggregate checks a whole run of updates against ONE
// aggregate signature with a single prepared pairing product. No
// production caller; kept for benchmark/ (which replays it as
// core.verify_aggregate_ms) until ROADMAP item 1(i).
//
//	Σ I_i = agg   and   ê(G, agg) = ê(sG, Σ H1(T_i))
//
// This is the O(1)-pairing catch-up check: n point additions, n label
// hashes and two pairings on the scheme's prepared key. The equation
// binds agg to the SUM of the updates, so a transport substituting
// compensating forgeries across two updates (+Δ on one, −Δ on
// another) defeats the sum check — which is why it can admit
// nothing and the client stopped running it: a range page reaches the
// verified cache on the blinded per-update batch verify alone, whose
// random blinders break any cancellation. An empty run verifies iff agg
// is the identity.
func (sc *Scheme) VerifyUpdateAggregate(spub ServerPublicKey, updates []KeyUpdate, agg curve.Point) bool {
	b := sc.Set.B
	if len(updates) == 0 {
		return agg.IsInfinity()
	}
	sum := b.Infinity(backend.G2)
	hashes := make([]curve.Point, len(updates))
	for i, u := range updates {
		if u.Point.IsInfinity() || !b.InSubgroup(backend.G2, u.Point) {
			return false
		}
		sum = b.Add(backend.G2, sum, u.Point)
		hashes[i] = sc.hashLabel(u.Label)
	}
	if !b.Equal(backend.G2, sum, agg) {
		return false
	}
	sc.pairings.Add(2) // the whole run collapses to one two-pairing check
	return bls.VerifyAggregate(sc.Set, sc.preparedKey(spub), hashes, agg)
}

// UserPublicKey is PK_U = (aG, a·sG). AG is always taken over the
// canonical parameter-set generator (this is the CA-certified half and
// stays fixed across server changes, §5.3.4); ASG binds the key to the
// chosen server's secret so decryption necessarily involves a key
// update.
type UserPublicKey struct {
	AG  curve.Point // a·G
	ASG curve.Point // a·sG
}

// UserKeyPair holds a user's private scalar and public key.
type UserKeyPair struct {
	A   *big.Int
	Pub UserPublicKey
}

// UserKeyGen generates a user key pair bound to the given time server.
func (sc *Scheme) UserKeyGen(spub ServerPublicKey, rng io.Reader) (*UserKeyPair, error) {
	a, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	return sc.UserKeyFromScalar(spub, a)
}

// UserKeyFromScalar derives the key pair for an explicit private scalar
// a ∈ [1, q-1].
func (sc *Scheme) UserKeyFromScalar(spub ServerPublicKey, a *big.Int) (*UserKeyPair, error) {
	if a.Sign() <= 0 || a.Cmp(sc.Set.Q) >= 0 {
		return nil, errors.New("tre: private scalar out of range [1, q-1]")
	}
	return &UserKeyPair{
		A: new(big.Int).Set(a),
		Pub: UserPublicKey{
			AG:  sc.mulG(sc.Set.G, a),
			ASG: sc.Set.B.ScalarMult(backend.G1, a, spub.SG),
		},
	}, nil
}

// UserKeyFromPassword derives the private scalar from a human-memorable
// password and salt, as the paper suggests ("the secret key a could be
// generated by applying a good hash function to a human-memorable
// password"). The salt must be unique per user.
func (sc *Scheme) UserKeyFromPassword(spub ServerPublicKey, password, salt []byte) (*UserKeyPair, error) {
	a := rohash.ToScalarNonZero("TRE-password-key", rohash.Concat(salt, password), sc.Set.Q)
	return sc.UserKeyFromScalar(spub, a)
}

// VerifyUserPublicKey performs the sender-side well-formedness check
// ê(aG, sG) = ê(G, a·sG) (Encryption step 1): it guarantees the key is
// really of the form (aG, a·sG), so the receiver cannot decrypt without
// the server's update. The first pairing argument pairs the certified
// AG (over the canonical generator) with the server's sG; the second
// pairs the canonical generator with ASG — equal exactly when
// ASG = a·sG for the same a.
func (sc *Scheme) VerifyUserPublicKey(spub ServerPublicKey, upub UserPublicKey) bool {
	if upub.AG.IsInfinity() || upub.ASG.IsInfinity() {
		return false
	}
	b := sc.Set.B
	if !b.InSubgroup(backend.G1, upub.AG) || !b.InSubgroup(backend.G1, upub.ASG) {
		return false
	}
	// The fixed server points sit in the prepared key (on a symmetric
	// backend the line schedules of G and sG; on BLS12-381 the prepared
	// G2 schedules of the generator and sG2); the varying user points
	// pair as cheap per-call arguments.
	pk := sc.preparedKey(ServerPublicKey{G: sc.Set.G, SG: spub.SG, SG2: spub.SG2})
	sc.pairings.Add(2)
	return pk.SameKey(upub.AG, upub.ASG)
}

// hashLabel is the paper's H1 applied to a time label.
func (sc *Scheme) hashLabel(label string) curve.Point {
	return sc.Set.B.HashToG2(TimeDomain, []byte(label))
}
