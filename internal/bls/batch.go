package bls

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/parallel"
	"timedrelease/internal/params"
)

// batchExponentBits sizes the random blinding exponents of batch
// verification; a forged signature slips through with probability
// ~2^-batchExponentBits per batch.
const batchExponentBits = 128

// VerifyBatch checks many same-key signatures with ONE pairing equation
// instead of one per signature:
//
//	ê(G, Σ eᵢ·σᵢ) = ê(sG, Σ eᵢ·H1(mᵢ))
//
// for fresh random 128-bit blinders eᵢ. If every σᵢ = s·H1(mᵢ) the
// equation holds; if any signature is wrong, the random combination
// detects it except with probability ~2⁻¹²⁸. This is the fast path for a
// receiver catching up on many archived key updates at once: 2 Miller
// loops total instead of 2 per update (measured in E6).
//
// Both sums are linear in the points, so each is one multi-scalar
// multiplication (Backend.MSM) and the hash side clears its cofactor
// once per batch (Backend.HashSumG2), under blinders walked as drawn —
// never reduced modulo the group order, which Test160's 80-bit q is
// below. The subgroup check is NOT linear (a random combination lets a
// component of small order d through with probability 1/d, and the
// Type-1 cofactors have tiny factors), so it still runs on every
// signature by itself, across the worker pool.
//
// The fixed pairing arguments sit in the prepared key. A false batch
// tells you *something* failed but not what; fall back to per-signature
// VerifyPrepared to locate offenders — which also covers the Type-1
// message whose first hash candidate the cofactor kills (probability
// 1/q): the summed hash differs there and an honest batch fails closed.
func VerifyBatch(set *params.Set, pk backend.PreparedKey, dst string, msgs [][]byte, sigs []curve.Point, rng io.Reader) (bool, error) {
	return verifyBatch(set, pk, len(msgs), func(e []*big.Int) curve.Point { return set.B.HashSumG2(dst, e, msgs) }, sigs, rng)
}

// VerifyBatchHashed is VerifyBatch for a caller that already holds
// hashes[i] = H1(mᵢ) as points of G2 it computed itself (the token
// client keeps them from blinding): the same checks and the same
// equation, minus the n hashes.
func VerifyBatchHashed(set *params.Set, pk backend.PreparedKey, hashes, sigs []curve.Point, rng io.Reader) (bool, error) {
	return verifyBatch(set, pk, len(hashes), func(e []*big.Int) curve.Point { return set.B.MSM(backend.G2, e, hashes) }, sigs, rng)
}

// verifyBatch is the one batch-verification body; hashSum(e) is the
// door's Σ eᵢ·H1(mᵢ).
func verifyBatch(set *params.Set, pk backend.PreparedKey, n int, hashSum func(e []*big.Int) curve.Point, sigs []curve.Point, rng io.Reader) (bool, error) {
	if n != len(sigs) {
		return false, fmt.Errorf("bls: %d messages for %d signatures", n, len(sigs))
	}
	if n == 0 {
		return true, nil
	}
	if rng == nil {
		rng = rand.Reader
	}
	// Draw all blinders first, sequentially: the rng may be a
	// deterministic test reader, and parallel sampling would make the
	// blinder assignment schedule-dependent.
	limit := new(big.Int).Lsh(big.NewInt(1), batchExponentBits)
	blinders := make([]*big.Int, n)
	for i := range blinders {
		e, err := rand.Int(rng, limit)
		if err != nil {
			return false, fmt.Errorf("bls: sampling batch blinder: %w", err)
		}
		blinders[i] = e.Add(e, big.NewInt(1)) // e ∈ [1, 2^128]
	}

	var bad atomic.Bool
	parallel.For(n, func(i int) {
		if !validSig(set, sigs[i]) {
			bad.Store(true)
		}
	})
	if bad.Load() {
		return false, nil
	}
	return pk.PairCheck(hashSum(blinders), set.B.MSM(backend.G2, blinders, sigs)), nil
}
