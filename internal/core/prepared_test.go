package core

import (
	"sync"
	"testing"

	"timedrelease/internal/bls"
	"timedrelease/internal/params"
)

// TestPreparedSlotAlternatingKeys swaps the scheme's one prepared-key
// slot between two server keys from many goroutines: every VerifyUpdate
// must return what the unprepared bls.Verify returns, including for an
// update valid under the other key checked right after a swap. Run
// with -race (make ci does).
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

	const goroutines, iters = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
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
