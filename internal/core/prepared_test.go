package core

import (
	"sync"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// TestPreparedSlotAlternatingKeys swaps the scheme's one prepared-key
// slot between two server keys from many goroutines: every VerifyUpdate
// must return what the unprepared bls.Verify returns, including for an
// update valid under the other key checked right after a swap. The same
// goroutines race the generator table's first build. Run with -race
// (make ci does).
func TestPreparedSlotAlternatingKeys(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := NewScheme(set)
	var keys [2]*ServerKeyPair
	var upds [2]KeyUpdate
	for i := range keys {
		k, err := sc.ServerKeyGen(nil)
		if err != nil {
			t.Fatalf("ServerKeyGen: %v", err)
		}
		keys[i], upds[i] = k, sc.IssueUpdate(k, testLabel)
	}
	h := set.B.HashToG2(TimeDomain, []byte(testLabel))
	var want [2][2]bool // want[key][update]
	for k := range keys {
		for u := range upds {
			want[k][u] = bls.Verify(set, keys[k].Pub, h, upds[u].Point)
		}
	}
	if !want[0][0] || !want[1][1] || want[0][1] || want[1][0] {
		t.Fatalf("oracle table %v, want each update valid under its own key only", want)
	}
	a := keys[0].S
	aG := set.B.ScalarMult(backend.G1, a, set.G)

	const goroutines, iters = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if !set.B.Equal(backend.G1, sc.mulG(set.G, a), aG) {
				t.Errorf("goroutine %d: generator table disagrees with ScalarMult", g)
				return
			}
			for it := 0; it < iters; it++ {
				j := (g + it) % 2
				// Own update (the slot moves to key j), then the same update
				// under the other key (the slot moves back).
				for _, k := range []int{j, 1 - j} {
					if got := sc.VerifyUpdate(keys[k].Pub, upds[j]); got != want[k][j] {
						t.Errorf("goroutine %d: VerifyUpdate(key %d, update %d) = %v, want %v", g, k, j, got, want[k][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMulGMatchesScalarMult pins the generator table and the plain
// ladder a foreign base takes to ScalarMult's points.
func TestMulGMatchesScalarMult(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := NewScheme(set)
	k, err := set.B.RandScalar(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]curve.Point{
		"generator": set.G,
		"foreign":   set.B.ScalarMult(backend.G1, k, set.G),
	} {
		for range 2 { // the second generator call runs on the built table
			if !set.B.Equal(backend.G1, sc.mulG(base, k), set.B.ScalarMult(backend.G1, k, base)) {
				t.Fatalf("%s: mulG disagrees with ScalarMult", name)
			}
		}
	}
}
