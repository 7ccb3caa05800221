package hibe

import "timedrelease/internal/backend"

// VerifyNodeKey checks a received bundle's decryption half against the
// ROOT public key — so cover publications can travel over any untrusted
// channel, exactly like flat key updates:
//
//	ê(G, S_w) = Π_{i=1..t} ê(Q_{i-1}, P_i),   Q_0 = sG, P_i = H1(ID₁…ID_i)
//
// which holds iff S_w = Σ s_{parent(i)}·P_i for the secrets the Q-list
// commits to. Evaluated as one pairing product with a negated first
// factor and a single final exponentiation.
//
// The delegation scalar is deliberately NOT anchored: decryption cancels
// every Q-dependent term, so any self-consistent (S, Qs, delegation)
// triple that passes this check is a working key for its path — a mirror
// re-randomising delegation scalars changes nothing (asserted by
// TestDelegationScalarIsNotTrustBearing). What cannot pass is a forged
// S: its s·P₁ component is pinned to Q₀ = sG, and forging it would
// contradict the same CDH argument that protects ordinary key updates.
func (sc *Scheme) VerifyNodeKey(pub RootPublicKey, k NodeKey) bool {
	t := len(k.Path)
	if t == 0 || len(k.Qs) != t-1 {
		return false
	}
	b := sc.Set.B
	if k.S.IsInfinity() || !b.InSubgroup(backend.G2, k.S) {
		return false
	}
	if k.Delegation == nil || k.Delegation.Sign() <= 0 || k.Delegation.Cmp(sc.Set.Q) >= 0 {
		return false
	}
	pairs := make([]backend.PointPair, 0, t+1)
	pairs = append(pairs, backend.PointPair{P: b.Neg(backend.G1, pub.G), Q: k.S})
	qPrev := pub.SG // Q_0 = sG
	for i := 1; i <= t; i++ {
		if qPrev.IsInfinity() || !b.InSubgroup(backend.G1, qPrev) {
			return false
		}
		pairs = append(pairs, backend.PointPair{P: qPrev, Q: sc.hashPrefix(k.Path[:i])})
		if i < t {
			qPrev = k.Qs[i-1]
		}
	}
	return b.GTIsOne(b.PairProduct(pairs))
}
