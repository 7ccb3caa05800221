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
	"crypto/sha256"
	"errors"
	"io"
	"math/big"

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

// Scheme binds the TRE algorithms to a parameter set.
type Scheme struct {
	Set *params.Set

	// prepared caches fixed-argument pairing precomputations per server
	// key (keyed by a digest of the compressed encodings of G and sG).
	// The points of a server key stay fixed across every update and
	// public-key verification, so each Miller-loop line schedule is
	// computed once per key and reused for the lifetime of the Scheme.
	// The cache is sharded with lock-free reads, single-flight builds
	// and LRU eviction (cache.go); in practice it holds one entry, or a
	// handful under server change (§5.3.4).
	prepared pointCache[backend.PreparedKey]

	// bases caches fixed-base scalar-multiplication tables, keyed like
	// prepared. The multiplied points of keygen and encryption are the
	// canonical generator and the server key halves — all fixed for the
	// lifetime of a Scheme — so a·G, a·sG and r·G all run on the
	// windowed fixed-base ladder after the first use of each point.
	bases pointCache[backend.BaseTable]

	// labels caches H1(label) hash-to-point results, keyed by a digest
	// of the label string. Hash-to-group is try-and-increment (a
	// Legendre symbol per candidate plus a square root), which dominates
	// the allocation profile of Encrypt — and one release label serves
	// every user of an epoch, so the same handful of labels is hashed
	// over and over by Encrypt, Decrypt and VerifyUpdate. Entries are
	// immutable points; the LRU cap bounds growth under label churn.
	labels pointCache[curve.Point]

	// met holds the scheme's observability hooks. All fields are nil
	// until Instrument is called; obs types no-op on nil, so the
	// uninstrumented hot path pays one branch per event.
	met schemeMetrics
}

// schemeMetrics are the core-layer counters (see docs/OBSERVABILITY.md
// for the metric name registry).
type schemeMetrics struct {
	pairings     *obs.Counter // pairing evaluations (Miller loop + final exp)
	preparedHit  *obs.Counter // prepared server-key cache hits
	preparedMiss *obs.Counter // … and misses (one Precompute each)
	baseHit      *obs.Counter // fixed-base table cache hits
	baseMiss     *obs.Counter // … and misses (one PrecomputeBase each)
	labelHit     *obs.Counter // H1(label) point cache hits
	labelMiss    *obs.Counter // … and misses (one HashToGroup each)
}

// Instrument registers the scheme's counters on r (metric names
// core.*) and starts recording. Call before concurrent use; returns sc
// for chaining.
func (sc *Scheme) Instrument(r *obs.Registry) *Scheme {
	sc.met = schemeMetrics{
		pairings:     r.Counter("core.pairings"),
		preparedHit:  r.Counter("core.prepared_cache_hit"),
		preparedMiss: r.Counter("core.prepared_cache_miss"),
		baseHit:      r.Counter("core.basetable_cache_hit"),
		baseMiss:     r.Counter("core.basetable_cache_miss"),
		labelHit:     r.Counter("core.labelpoint_cache_hit"),
		labelMiss:    r.Counter("core.labelpoint_cache_miss"),
	}
	return sc
}

// NewScheme returns a TRE scheme instance over the given parameters.
func NewScheme(set *params.Set) *Scheme {
	return &Scheme{Set: set}
}

// pointKeyBuf sizes the stack buffer the cache-key builders marshal
// into: two compressed points of the widest supported modulus
// (maxMontLimbs · 8 bytes each, plus tags). Wider custom fields spill
// to a heap append inside AppendMarshal — correct, just not
// allocation-free.
const pointKeyBuf = 2 * (1 + 32*8)

// pointKey digests one group-tagged compressed point encoding into a
// cache key without heap allocation. The tag byte keeps a G1 and a G2
// point with coincidentally equal encodings apart (the key is internal
// to the cache, never serialized).
func (sc *Scheme) pointKey(g backend.Group, p curve.Point) cacheKey {
	var buf [pointKeyBuf]byte
	b := append(buf[:0], byte(g))
	return sha256.Sum256(sc.Set.B.AppendPoint(b, g, p))
}

// pointKey2 digests two group-tagged compressed point encodings into a
// cache key.
func (sc *Scheme) pointKey2(g backend.Group, p, q curve.Point) cacheKey {
	var buf [pointKeyBuf]byte
	b := append(buf[:0], byte(g))
	b = sc.Set.B.AppendPoint(b, g, p)
	return sha256.Sum256(sc.Set.B.AppendPoint(b, g, q))
}

// baseTable returns the cached fixed-base table for p, building it on
// first use. Safe for concurrent use — reads are lock-free and a miss
// builds the table exactly once however many goroutines race on it;
// the returned table is immutable.
func (sc *Scheme) baseTable(g backend.Group, p curve.Point) backend.BaseTable {
	return *sc.bases.getOrBuild(sc.pointKey(g, p), func() *backend.BaseTable {
		t := sc.Set.B.PrecomputeBase(g, p)
		return &t
	}, sc.met.baseHit, sc.met.baseMiss)
}

// preparedKey returns the cached fixed-argument pairing
// precomputation for a server key, building it on first use. Safe for
// concurrent use — reads are lock-free and a miss runs Precompute
// exactly once per key (single-flight); the returned key is immutable.
func (sc *Scheme) preparedKey(spub ServerPublicKey) backend.PreparedKey {
	return *sc.prepared.getOrBuild(sc.pointKey2(backend.G1, spub.G, spub.SG), func() *backend.PreparedKey {
		pk := sc.Set.B.PrepareKey(spub.G, spub.SG, spub.SG2)
		return &pk
	}, sc.met.preparedHit, sc.met.preparedMiss)
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
// server key, so the check runs on the cached prepared path, and H1(T)
// comes from the scheme's label cache (an encrypting sender has
// usually already hashed the same label).
func (sc *Scheme) VerifyUpdate(spub ServerPublicKey, u KeyUpdate) bool {
	sc.met.pairings.Add(2) // one pairing per side of the check
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
	sc.met.pairings.Add(2) // the whole batch collapses to one two-pairing check
	// bls.VerifyBatch hashes the labels itself, inside its worker pool
	// and past the label cache: a cold catch-up must not serialise H1.
	return bls.VerifyBatch(sc.Set, sc.preparedKey(spub), TimeDomain, msgs, sigs, nil)
}

// VerifyUpdateAggregate checks a whole run of updates against ONE
// aggregate signature with a single prepared pairing product. No
// production caller; kept for benchmark/ (which replays it as
// core.verify_aggregate_ms) until ROADMAP item 1(i).
//
//	Σ I_i = agg   and   ê(G, agg) = ê(sG, Σ H1(T_i))
//
// This is the O(1)-pairing catch-up check: n point additions plus two
// pairings, with every H1(T_i) served from the sharded label cache.
// The equation binds agg to the SUM of the updates, so a transport
// substituting compensating forgeries across two updates (+Δ on one,
// −Δ on another) defeats the sum check — which is why it can admit
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
	sc.met.pairings.Add(2) // the whole run collapses to one two-pairing check
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
	b := sc.Set.B
	return &UserKeyPair{
		A: new(big.Int).Set(a),
		Pub: UserPublicKey{
			AG:  b.ScalarMultBase(sc.baseTable(backend.G1, sc.Set.G), a),
			ASG: b.ScalarMultBase(sc.baseTable(backend.G1, spub.SG), a),
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
	sc.met.pairings.Add(2)
	return pk.SameKey(upub.AG, upub.ASG)
}

// hashLabel is the paper's H1 applied to a time label, memoised in the
// scheme's sharded label cache: one epoch's label is hashed by every
// Encrypt, Decrypt and update verification, and try-and-increment
// hash-to-point is the single most allocation-heavy step of
// encryption. The cached point is shared and must be treated as
// immutable by callers (all curve operations copy their inputs).
func (sc *Scheme) hashLabel(label string) curve.Point {
	return *sc.labels.getOrBuild(sha256.Sum256([]byte(label)), func() *curve.Point {
		p := sc.Set.B.HashToG2(TimeDomain, []byte(label))
		return &p
	}, sc.met.labelHit, sc.met.labelMiss)
}
