package core

import (
	"sync"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
)

// TestPreparedCacheSingleFlight hammers the prepared-key cache from many
// goroutines over a mix of shared and distinct server keys and asserts
// the single-flight contract: Precompute runs exactly once per distinct
// key (miss counter == distinct keys), every caller for a given key
// observes the same immutable value, and the race detector sees no
// unsynchronised access. Run with -race (make check does).
func TestPreparedCacheSingleFlight(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := NewScheme(set).Instrument(obs.NewRegistry())

	const distinctKeys = 4
	servers := make([]*ServerKeyPair, distinctKeys)
	for i := range servers {
		k, err := sc.ServerKeyGen(nil)
		if err != nil {
			t.Fatalf("ServerKeyGen: %v", err)
		}
		servers[i] = k
	}

	const goroutines = 16
	const iters = 8
	results := make([][distinctKeys]backend.PreparedKey, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for it := 0; it < iters; it++ {
				for i, srv := range servers {
					pk := sc.preparedKey(srv.Pub)
					if pk == nil {
						t.Errorf("nil prepared key")
						return
					}
					if results[g][i] == nil {
						results[g][i] = pk
					} else if results[g][i] != pk {
						t.Errorf("goroutine %d key %d: prepared pointer changed between calls", g, i)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	// Every goroutine must have observed the same pointer per key: one
	// Precompute per key, shared by all callers.
	for i := 0; i < distinctKeys; i++ {
		for g := 1; g < goroutines; g++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("key %d: goroutine %d saw a different prepared value than goroutine 0", i, g)
			}
		}
	}

	if miss := sc.met.preparedMiss.Load(); miss != distinctKeys {
		t.Fatalf("preparedMiss = %d, want %d (duplicate Precompute work)", miss, distinctKeys)
	}
	wantHits := int64(goroutines*iters*distinctKeys - distinctKeys)
	if hit := sc.met.preparedHit.Load(); hit != wantHits {
		t.Fatalf("preparedHit = %d, want %d", hit, wantHits)
	}
	if n := sc.prepared.size(); n != distinctKeys {
		t.Fatalf("cache holds %d entries, want %d", n, distinctKeys)
	}
}

// TestBaseTableCacheBoundedUnderChurn floods the base-table cache with
// far more distinct keys than its capacity, concurrently, and asserts
// the eviction policy keeps it bounded while lookups keep returning
// correct tables.
func TestBaseTableCacheBoundedUnderChurn(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := NewScheme(set).Instrument(obs.NewRegistry())

	const churnKeys = 3 * cacheShards * cacheShardCap
	pts := make([]curve.Point, churnKeys)
	for i := range pts {
		k, err := set.B.RandScalar(nil)
		if err != nil {
			t.Fatalf("RandScalar: %v", err)
		}
		pts[i] = set.B.ScalarMult(backend.G1, k, set.G)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < churnKeys; i += goroutines {
				tab := sc.baseTable(backend.G1, pts[i])
				if tab.IsInfinity() {
					t.Errorf("unexpected infinity table")
					return
				}
				base := tab.Base()
				if base.X.Cmp(pts[i].X) != 0 || base.Y.Cmp(pts[i].Y) != 0 {
					t.Errorf("table base mismatch for key %d", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if n := sc.bases.size(); n > cacheShards*cacheShardCap {
		t.Fatalf("cache grew to %d entries under churn, cap is %d", n, cacheShards*cacheShardCap)
	}
}
