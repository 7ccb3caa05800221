// Package hibe implements Gentry–Silverberg hierarchical identity-based
// encryption (BasicHIDE) over the repository's pairing backend, with
// chain-derived delegation secrets. It is the substrate for the paper's
// stated future work (§6): "schemes resilient to missing updates ...
// using the hierarchical identity based encryption in a way similar to
// forward secure encryption" — realised in package resilient.
//
// Identities are tuples (ID₁, …, ID_t). With P_i = H1(ID₁‖…‖ID_i) and
// per-node delegation secrets s_w, a node's key is
//
//	S_w = Σ_{i=1..t} s_{parent(i)} · P_i
//
// together with the Q-values Q_i = s_{prefix_i}·G of its proper
// prefixes. G, sG, the Q_i and the header U₀ are G1 points; the hashed
// prefixes P_i, the node secret S_w and the headers U_i = rP_i are G2
// points, so every pairing below takes G1 on the left and G2 on the
// right. Delegation secrets are chain-derived, s_child = H(s_parent ‖
// label), so (a) the root can compute ANY node's bundle statelessly —
// preserving the paper's property that the server remembers nothing
// about the future — and (b) publishing a node bundle lets anyone derive
// every descendant bundle but no sibling or ancestor.
//
//	Encrypt(ID₁..ID_t): r ← Z_q^*; C = ⟨rG, rP₂, …, rP_t, M ⊕ H2(K)⟩,
//	                    K = ê(sG, P₁)^r
//	Decrypt:            K = ê(U₀, S_w) / Π_{i=2..t} ê(Q_{i-1}, U_i)
package hibe

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// Scheme binds BasicHIDE to a parameter set and a hash domain (distinct
// domains give independent hierarchies).
type Scheme struct {
	Set    *params.Set
	Domain string
}

// NewScheme returns a HIBE instance for the given hash domain.
func NewScheme(set *params.Set, domain string) *Scheme {
	return &Scheme{Set: set, Domain: domain}
}

// RootKey is the root PKG's key pair.
type RootKey struct {
	S   *big.Int
	Pub RootPublicKey
}

// RootPublicKey is (G, sG).
type RootPublicKey struct {
	G  curve.Point
	SG curve.Point
}

// RootKeyGen creates the hierarchy root.
func (sc *Scheme) RootKeyGen(rng io.Reader) (*RootKey, error) {
	s, err := sc.Set.B.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	return &RootKey{
		S: s,
		Pub: RootPublicKey{
			G:  sc.Set.G,
			SG: sc.Set.B.ScalarMult(backend.G1, s, sc.Set.G),
		},
	}, nil
}

// NodeKey is the full bundle of one hierarchy node: enough to decrypt
// anything addressed to its identity tuple AND to derive every
// descendant's bundle.
type NodeKey struct {
	Path       []string      // identity tuple (ID₁ … ID_t)
	S          curve.Point   // Σ s_{parent(i)}·P_i ∈ G2
	Delegation *big.Int      // this node's chain secret s_w
	Qs         []curve.Point // Q_i = s_{prefix_i}·G ∈ G1 for i = 1..t-1
}

// Depth returns the node's level (root children are depth 1).
func (k NodeKey) Depth() int { return len(k.Path) }

// hashPrefix computes P_i = H1(ID₁‖…‖ID_i) with unambiguous framing.
func (sc *Scheme) hashPrefix(path []string) curve.Point {
	parts := make([][]byte, len(path))
	for i, p := range path {
		parts[i] = []byte(p)
	}
	return sc.Set.B.HashToG2("HIBE:"+sc.Domain, rohash.Concat(parts...))
}

// chainSecret derives s_child = H(s_parent ‖ label) ∈ Z_q^*.
func (sc *Scheme) chainSecret(parent *big.Int, label string) *big.Int {
	qf := (sc.Set.Q.BitLen() + 7) / 8
	buf := parent.FillBytes(make([]byte, qf))
	return rohash.ToScalarNonZero("HIBE-chain:"+sc.Domain, rohash.Concat(buf, []byte(label)), sc.Set.Q)
}

// ChildOfRoot derives the bundle of a depth-1 node. Only the root can
// do this (it needs the master secret).
func (sc *Scheme) ChildOfRoot(root *RootKey, label string) NodeKey {
	path := []string{label}
	return NodeKey{
		Path:       path,
		S:          sc.Set.B.ScalarMult(backend.G2, root.S, sc.hashPrefix(path)),
		Delegation: sc.chainSecret(root.S, label),
		Qs:         nil, // no intermediate prefixes yet
	}
}

// Child derives a child bundle from a parent bundle. ANYONE holding the
// parent bundle can do this — that is the point: publishing a subtree
// root releases the whole subtree.
func (sc *Scheme) Child(parent NodeKey, label string) NodeKey {
	path := append(append([]string(nil), parent.Path...), label)
	b := sc.Set.B
	s := b.Add(backend.G2, parent.S, b.ScalarMult(backend.G2, parent.Delegation, sc.hashPrefix(path)))
	qs := append(append([]curve.Point(nil), parent.Qs...),
		b.ScalarMult(backend.G1, parent.Delegation, sc.Set.G))
	return NodeKey{
		Path:       path,
		S:          s,
		Delegation: sc.chainSecret(parent.Delegation, label),
		Qs:         qs,
	}
}

// NodeFor computes the bundle of an arbitrary node directly from the
// root by walking the path — the stateless-server operation.
func (sc *Scheme) NodeFor(root *RootKey, path []string) (NodeKey, error) {
	if len(path) == 0 {
		return NodeKey{}, errors.New("hibe: empty path")
	}
	k := sc.ChildOfRoot(root, path[0])
	for _, label := range path[1:] {
		k = sc.Child(k, label)
	}
	return k, nil
}

// Ciphertext is a BasicHIDE ciphertext to a depth-t identity tuple.
type Ciphertext struct {
	U0 curve.Point   // rG ∈ G1
	Us []curve.Point // rP_i ∈ G2 for i = 2..t
	V  []byte        // M ⊕ H2(K)
}

// Encrypt encrypts msg to the identity tuple path under the root public
// key. Ciphertext size grows with depth (t group elements total).
func (sc *Scheme) Encrypt(rng io.Reader, pub RootPublicKey, path []string, msg []byte) (*Ciphertext, error) {
	if len(path) == 0 {
		return nil, errors.New("hibe: empty path")
	}
	b := sc.Set.B
	r, err := b.RandScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("hibe: sampling randomness: %w", err)
	}
	ct := &Ciphertext{U0: b.ScalarMult(backend.G1, r, pub.G)}
	for i := 2; i <= len(path); i++ {
		ct.Us = append(ct.Us, b.ScalarMult(backend.G2, r, sc.hashPrefix(path[:i])))
	}
	k := b.Pair(b.ScalarMult(backend.G1, r, pub.SG), sc.hashPrefix(path[:1]))
	ct.V = rohash.XOR(msg, sc.mask(k, len(msg)))
	return ct, nil
}

// Decrypt recovers the message with the exact node key of the target
// identity tuple:
//
//	K = ê(U₀, S) · Π ê(Q_{i-1}, U_i)^{-1}
//
// computed as a single pairing product (Q negated) with one shared
// final exponentiation.
func (sc *Scheme) Decrypt(key NodeKey, ct *Ciphertext) ([]byte, error) {
	b := sc.Set.B
	if ct == nil || !b.IsOnCurve(backend.G1, ct.U0) {
		return nil, errors.New("hibe: malformed ciphertext")
	}
	if len(ct.Us) != len(key.Qs) {
		return nil, fmt.Errorf("hibe: ciphertext depth %d does not match key depth %d", len(ct.Us)+1, key.Depth())
	}
	pairs := []backend.PointPair{{P: ct.U0, Q: key.S}}
	for i, u := range ct.Us {
		if !b.IsOnCurve(backend.G2, u) {
			return nil, errors.New("hibe: malformed ciphertext point")
		}
		pairs = append(pairs, backend.PointPair{P: b.Neg(backend.G1, key.Qs[i]), Q: u})
	}
	k := b.PairProduct(pairs)
	return rohash.XOR(ct.V, sc.mask(k, len(ct.V))), nil
}

func (sc *Scheme) mask(k backend.GT, n int) []byte {
	return rohash.Expand("HIBE-H2:"+sc.Domain, sc.Set.B.GTBytes(k), n)
}
