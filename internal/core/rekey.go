package core

import (
	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
)

// ReKeyForServer implements §5.3.4: when a sender insists on a different
// time server S' (public key (G', s'G')), the receiver derives a new
// public key (aG, a·s'G') from the same private scalar. No new CA
// certificate is needed — the original certified aG vouches for the new
// key via VerifyReKeyedKey.
func (sc *Scheme) ReKeyForServer(upriv *UserKeyPair, newServer ServerPublicKey) UserPublicKey {
	return UserPublicKey{
		AG:  upriv.Pub.AG, // the CA-certified half is unchanged
		ASG: sc.Set.B.ScalarMult(backend.G1, upriv.A, newServer.SG),
	}
}

// VerifyReKeyedKey checks a re-keyed public key against the certified
// aG: ê(G, a·s'G') = ê(s'G', aG). Only the holder of a can produce an
// ASG' satisfying this, so the original certificate transfers to the new
// server binding. certifiedAG is the aG from the user's original,
// CA-certified public key; the check is generator-agnostic (the new
// server may use a different generator).
func (sc *Scheme) VerifyReKeyedKey(certifiedAG curve.Point, newServer ServerPublicKey, newPub UserPublicKey) bool {
	if !sc.Set.B.Equal(backend.G1, certifiedAG, newPub.AG) {
		return false
	}
	if newPub.ASG.IsInfinity() || !sc.Set.B.InSubgroup(backend.G1, newPub.ASG) {
		return false
	}
	// ê(G, ASG') = ê(G, G')^{as'} must equal ê(s'G', aG) = ê(G', G)^{s'a}
	// — the same-key equation over the new server's key, whose prepared
	// key (the canonical generator and s'G') replaces the scheme's slot.
	pk := sc.preparedKey(ServerPublicKey{G: sc.Set.G, SG: newServer.SG, SG2: newServer.SG2})
	sc.pairings.Add(2)
	return pk.SameKey(certifiedAG, newPub.ASG)
}
