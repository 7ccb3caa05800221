// Package timedrelease's root benchmark suite: one testing.B family per
// experiment in DESIGN.md §3 (E1–E10). The formatted tables in
// EXPERIMENTS.md come from cmd/trebench; these benchmarks expose the
// same workloads to `go test -bench` so regressions are visible in
// standard tooling.
//
// Most benchmarks run on the fast Test160 parameters; E4 additionally
// pins the paper-era SS512 size for the headline primitive numbers.
package timedrelease

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/baseline/bfibe"
	"timedrelease/internal/baseline/hybrid"
	"timedrelease/internal/baseline/rsw"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/multiserver"
	"timedrelease/internal/pairing"
	"timedrelease/internal/resilient"
	"timedrelease/internal/simnet"
	"timedrelease/internal/threshold"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/timeserver"
	"timedrelease/tre"
)

const benchLabel = "2026-07-05T12:00:00Z"

type benchEnv struct {
	set    *tre.Params
	scheme *tre.Scheme
	server *tre.ServerKeyPair
	user   *tre.UserKeyPair
	upd    tre.KeyUpdate
}

func newBenchEnv(b *testing.B, preset string) *benchEnv {
	b.Helper()
	set := tre.MustPreset(preset)
	scheme := tre.NewScheme(set)
	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	user, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		b.Fatal(err)
	}
	return &benchEnv{
		set:    set,
		scheme: scheme,
		server: server,
		user:   user,
		upd:    scheme.IssueUpdate(server, benchLabel),
	}
}

// --- E1: TRE vs hybrid PKE+IBE --------------------------------------------

func BenchmarkE1_TREEncrypt(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	msg := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.scheme.Encrypt(nil, e.server.Pub, e.user.Pub, benchLabel, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_TREDecrypt(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	ct, err := e.scheme.Encrypt(nil, e.server.Pub, e.user.Pub, benchLabel, make([]byte, 32))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.scheme.Decrypt(e.user, e.upd, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_HybridEncrypt(b *testing.B) {
	set := tre.MustPreset("Test160")
	hyb := hybrid.NewScheme(set)
	ibe := bfibe.NewScheme(set)
	mk, err := ibe.MasterKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	rk, err := hyb.ReceiverKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hyb.Encrypt(nil, mk.Pub, rk.Pub, benchLabel, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_HybridDecrypt(b *testing.B) {
	set := tre.MustPreset("Test160")
	hyb := hybrid.NewScheme(set)
	ibe := bfibe.NewScheme(set)
	mk, err := ibe.MasterKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	rk, err := hyb.ReceiverKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := hyb.Encrypt(nil, mk.Pub, rk.Pub, benchLabel, make([]byte, 32))
	if err != nil {
		b.Fatal(err)
	}
	labelKey := ibe.Extract(mk, benchLabel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hyb.Decrypt(rk, labelKey, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_IDTREEncrypt(b *testing.B) {
	set := tre.MustPreset("Test160")
	id := tre.NewIDScheme(set)
	scheme := tre.NewScheme(set)
	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := id.Encrypt(nil, server.Pub, "receiver", benchLabel, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: server epoch cost --------------------------------------------------

func BenchmarkE2_TREEpochBroadcast(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simnet.TREEpoch(e.set, e.server, benchLabel, 10_000)
	}
}

func BenchmarkE2_MontIBEEpoch100(b *testing.B) {
	set := tre.MustPreset("Test160")
	ibe := bfibe.NewScheme(set)
	mk, err := ibe.MasterKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simnet.MontIBEEpoch(set, mk, benchLabel, 100)
	}
}

// --- E3: RSW time-lock puzzle -----------------------------------------------

func BenchmarkE3_RSWCreate(b *testing.B) {
	msg := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rsw.New(nil, 512, 1_000_000, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_RSWSolve10k(b *testing.B) {
	pz, err := rsw.New(nil, 512, 10_000, make([]byte, 32))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pz.Solve()
	}
}

// --- E4: primitives -----------------------------------------------------------

func benchmarkPrimitives(b *testing.B, preset string) {
	set := tre.MustPreset(preset)
	c, pr := set.B.(*backend.Symmetric).Type1()
	p := c.HashToGroup("bench", []byte("P"))
	q := c.HashToGroup("bench", []byte("Q"))
	k, err := c.RandScalar(nil)
	if err != nil {
		b.Fatal(err)
	}
	key, err := bls.GenerateKey(set, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte(benchLabel)
	sig := key.Sign(set, "time", msg)

	b.Run("Pairing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr.Pair(p, q)
		}
	})
	b.Run("ScalarMultJacobian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ScalarMult(k, p)
		}
	})
	b.Run("ScalarMultAffine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ScalarMultAffine(k, p)
		}
	})
	b.Run("HashToGroup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.HashToGroup("bench-h1", msg)
		}
	})
	b.Run("BLSSign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key.Sign(set, "time", msg)
		}
	})
	b.Run("BLSVerify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !bls.Verify(set, key.Pub, set.B.HashToG2("time", msg), sig) {
				b.Fatal("verify failed")
			}
		}
	})
}

func BenchmarkE4_Test160(b *testing.B) { benchmarkPrimitives(b, "Test160") }
func BenchmarkE4_SS512(b *testing.B)   { benchmarkPrimitives(b, "SS512") }

// --- Pairing paths: affine oracle vs production ------------------------------

// benchmarkPairingPaths compares every pairing evaluation strategy on
// one point pair: the affine math/big oracle (one field inversion per
// Miller step and a plain final exponentiation), the production Pair
// (inversion-free projective loop on limbs), the fixed-argument prepared
// path, and the n-pair product with its shared final exponentiation.
func benchmarkPairingPaths(b *testing.B, preset string) {
	set := tre.MustPreset(preset)
	_, pr := set.B.(*backend.Symmetric).Type1()
	p := set.B.HashToG2("pairing-paths", []byte("P"))
	q := set.B.HashToG2("pairing-paths", []byte("Q"))
	prep := pr.Precompute(p)
	pairs := make([]pairing.PointPair, 4)
	for i := range pairs {
		pairs[i] = pairing.PointPair{
			P: set.B.HashToG2("pairing-paths", []byte{byte(i)}),
			Q: set.B.HashToG2("pairing-paths", []byte{byte(16 + i)}),
		}
	}

	b.Run("Affine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr.PairAffine(p, q)
		}
	})
	b.Run("Projective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr.Pair(p, q)
		}
	})
	b.Run("Precompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr.Precompute(p)
		}
	})
	b.Run("Prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr.PairPrepared(prep, q)
		}
	})
	b.Run("Product4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr.PairProduct(pairs)
		}
	})
}

func BenchmarkPairing_Test160(b *testing.B) { benchmarkPairingPaths(b, "Test160") }
func BenchmarkPairing_SS512(b *testing.B)   { benchmarkPairingPaths(b, "SS512") }

// --- E5: multi-server ---------------------------------------------------------

func benchMultiEnv(b *testing.B, n int) (*multiserver.Scheme, *multiserver.UserKeyPair, []core.KeyUpdate, *multiserver.Ciphertext) {
	b.Helper()
	set := tre.MustPreset("Test160")
	sc := multiserver.NewScheme(set)
	scheme := core.NewScheme(set)
	var (
		group   multiserver.ServerGroup
		updates []core.KeyUpdate
	)
	for i := 0; i < n; i++ {
		k, err := set.B.RandScalar(nil)
		if err != nil {
			b.Fatal(err)
		}
		kp, err := bls.GenerateKeyWithGenerator(set, set.B.ScalarMult(backend.G1, k, set.G), nil)
		if err != nil {
			b.Fatal(err)
		}
		group = append(group, kp.Pub)
		updates = append(updates, scheme.IssueUpdate(kp, benchLabel))
	}
	user, err := sc.UserKeyGen(group, nil)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := sc.Encrypt(nil, group, user.Pub, benchLabel, make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	return sc, user, updates, ct
}

func BenchmarkE5_MultiDecryptShared3(b *testing.B) {
	sc, user, updates, ct := benchMultiEnv(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Decrypt(user, updates, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSink keeps the compiler from discarding a measured result.
var benchSink any

func BenchmarkE5_MultiDecryptSeparate3(b *testing.B) {
	// The E5 ablation: three independent full pairings multiplied in GT
	// where Decrypt runs one PairProduct.
	sc, user, updates, ct := benchMultiEnv(b, 3)
	bk := sc.Set.B
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := bk.GTOne()
		for j, u := range ct.Us {
			acc = bk.GTMul(acc, bk.Pair(bk.ScalarMult(backend.G1, user.A, u), updates[j].Point))
		}
		benchSink = acc
	}
}

// --- E6: update issue/verify ----------------------------------------------------

func BenchmarkE6_IssueUpdate(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.scheme.IssueUpdate(e.server, benchLabel)
	}
}

func BenchmarkE6_VerifyUpdate(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.scheme.VerifyUpdate(e.server.Pub, e.upd) {
			b.Fatal("verify failed")
		}
	}
}

// --- E7: key insulation ------------------------------------------------------------

func BenchmarkE7_DeriveEpochKey(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.scheme.DeriveEpochKey(e.user, e.upd)
	}
}

func BenchmarkE7_DecryptInsulated(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	ek := e.scheme.DeriveEpochKey(e.user, e.upd)
	ct, err := e.scheme.Encrypt(nil, e.server.Pub, e.user.Pub, benchLabel, make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.scheme.DecryptWithEpochKey(ek, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: live HTTP update fetch ------------------------------------------------------

func BenchmarkE8_UpdateFetchVerify(b *testing.B) {
	set := tre.MustPreset("Test160")
	scheme := core.NewScheme(set)
	key, err := scheme.ServerKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	sched := timefmt.MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	srv := timeserver.NewServer(set, key, sched, timeserver.WithClock(func() time.Time { return now }))
	if _, err := srv.PublishUpTo(now); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	label := sched.Label(now)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh client each iteration so the fetch is not served from the
		// verification cache.
		client := timeserver.NewClient(ts.URL, set, key.Pub, timeserver.WithHTTPClient(ts.Client()))
		if _, err := client.Update(ctx, label); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: Rivest horizon --------------------------------------------------------------

func BenchmarkE9_RivestHorizon1Day(b *testing.B) {
	set := tre.MustPreset("Test160")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simnet.RivestHorizon(set, 1440); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: HIBE time tree ----------------------------------------------------------------

func benchTree(b *testing.B) (*resilient.Scheme, []tre.TreeNodeKey, *tre.TreeCiphertext, uint64) {
	b.Helper()
	set := tre.MustPreset("Test160")
	rs, err := resilient.NewScheme(set, 16)
	if err != nil {
		b.Fatal(err)
	}
	root, err := rs.H.RootKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	const epoch, now = 39995, 40000
	ct, err := rs.Encrypt(nil, root.Pub, epoch, make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	cover, err := rs.PublishCover(root, now)
	if err != nil {
		b.Fatal(err)
	}
	return rs, cover, ct, epoch
}

func BenchmarkE10_TreeLeafDerive(b *testing.B) {
	rs, cover, _, epoch := benchTree(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.LeafKey(cover, epoch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_TreeDecrypt(b *testing.B) {
	rs, cover, ct, epoch := benchTree(b)
	leaf, err := rs.LeafKey(cover, epoch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.H.Decrypt(leaf, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: amortised encryption ------------------------------------------------------------

func BenchmarkE11_EncryptDirect(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.scheme.Encrypt(nil, e.server.Pub, e.user.Pub, benchLabel, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_EncryptAmortised(b *testing.B) {
	e := newBenchEnv(b, "Test160")
	enc, err := e.scheme.NewEncryptor(e.server.Pub, e.user.Pub)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 64)
	if _, err := enc.Encrypt(nil, benchLabel, msg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encrypt(nil, benchLabel, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: threshold servers ------------------------------------------------------------------

func BenchmarkE12_IssuePartial(b *testing.B) {
	set := tre.MustPreset("Test160")
	setup, err := threshold.Deal(set, nil, 3, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		threshold.IssuePartial(set, setup.Shares[0], benchLabel)
	}
}

func BenchmarkE12_Combine3of5(b *testing.B) {
	set := tre.MustPreset("Test160")
	setup, err := threshold.Deal(set, nil, 3, 5)
	if err != nil {
		b.Fatal(err)
	}
	partials := make([]threshold.PartialUpdate, 3)
	for i := 0; i < 3; i++ {
		partials[i] = threshold.IssuePartial(set, setup.Shares[i], benchLabel)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := threshold.Combine(set, setup.GroupPub, partials, 3); err != nil {
			b.Fatal(err)
		}
	}
}
