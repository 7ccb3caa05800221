package resilient

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/hibe"
	"timedrelease/internal/params"
)

func setup(t *testing.T, preset string, depth int) (*Scheme, *hibe.RootKey) {
	t.Helper()
	sc, err := NewScheme(params.MustPreset(preset), depth)
	if err != nil {
		t.Fatal(err)
	}
	root, err := sc.H.RootKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	return sc, root
}

// onBothBackends runs body with a fresh depth-level tree on the paper's
// Type-1 setting and on BLS12-381. The tests that only inspect tree
// shape (paths, cover structure, cover size) stay on Test160.
func onBothBackends(t *testing.T, depth int, body func(*testing.T, *Scheme, *hibe.RootKey)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) {
			sc, root := setup(t, preset, depth)
			body(t, sc, root)
		})
	}
}

func TestPathOf(t *testing.T) {
	sc, _ := setup(t, "Test160", 4)
	tests := map[uint64]string{
		0:  "0000",
		1:  "0001",
		5:  "0101",
		15: "1111",
	}
	for epoch, want := range tests {
		path, err := sc.PathOf(epoch)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, b := range path {
			got += b
		}
		if got != want {
			t.Errorf("PathOf(%d) = %s, want %s", epoch, got, want)
		}
	}
	if _, err := sc.PathOf(16); err == nil {
		t.Fatal("out-of-range epoch must be rejected")
	}
}

func TestCoverStructure(t *testing.T) {
	sc, _ := setup(t, "Test160", 4)
	// Cover of [0,5] (0101): sibling-left nodes are "0" at each 1-bit:
	// path 0101 → 1-bits at positions 1 and 3 → nodes "00"?? no:
	// prefix before pos1 = "0", node = "00"; prefix before pos3 = "010",
	// node = "0100"; plus leaf "0101".
	cover, err := sc.Cover(5)
	if err != nil {
		t.Fatal(err)
	}
	join := func(p []string) string {
		s := ""
		for _, x := range p {
			s += x
		}
		return s
	}
	want := map[string]bool{"00": true, "0100": true, "0101": true}
	if len(cover) != len(want) {
		t.Fatalf("cover size %d, want %d (%v)", len(cover), len(want), cover)
	}
	for _, p := range cover {
		if !want[join(p)] {
			t.Fatalf("unexpected cover node %s", join(p))
		}
	}
	// Full range.
	coverMax, err := sc.Cover(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(coverMax) != 5 { // "0", "10", "110", "1110", leaf "1111"
		t.Fatalf("cover(15) size = %d", len(coverMax))
	}
	// Epoch 0: just the leaf.
	cover0, err := sc.Cover(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cover0) != 1 || join(cover0[0]) != "0000" {
		t.Fatalf("cover(0) = %v", cover0)
	}
}

func TestCoverCoversExactlyPast(t *testing.T) { onBothBackends(t, 3, testCoverCoversExactlyPast) }

func testCoverCoversExactlyPast(t *testing.T, sc *Scheme, root *hibe.RootKey) {
	// Exhaustive ground truth on a small tree: the cover of [0,t] must
	// dominate every epoch ≤ t and no epoch > t.
	for tt := uint64(0); tt < 8; tt++ {
		cover, err := sc.PublishCover(root, tt)
		if err != nil {
			t.Fatal(err)
		}
		for e := uint64(0); e < 8; e++ {
			_, err := sc.LeafKey(cover, e)
			if e <= tt && err != nil {
				t.Fatalf("t=%d: epoch %d should be covered: %v", tt, e, err)
			}
			if e > tt && !errors.Is(err, ErrNotCovered) {
				t.Fatalf("t=%d: epoch %d must NOT be covered (err=%v)", tt, e, err)
			}
		}
	}
}

func TestEndToEndWithMissedUpdates(t *testing.T) { onBothBackends(t, 4, testEndToEndWithMissedUpdates) }

func testEndToEndWithMissedUpdates(t *testing.T, sc *Scheme, root *hibe.RootKey) {
	// A receiver misses every publication between epochs 2 and 11, then
	// downloads only the cover at 11 and decrypts a message released at
	// epoch 7.
	msg := []byte("released at epoch 7, recovered at epoch 11")
	ct, err := sc.Encrypt(nil, root.Pub, 7, msg)
	if err != nil {
		t.Fatal(err)
	}

	cover, err := sc.PublishCover(root, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The download is small: ≤ Depth+1 bundles, not 10 updates.
	if len(cover) > sc.Depth+1 {
		t.Fatalf("cover size %d exceeds depth+1", len(cover))
	}
	got, err := sc.Decrypt(cover, 7, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
}

func TestFutureEpochStaysLocked(t *testing.T) { onBothBackends(t, 4, testFutureEpochStaysLocked) }

func testFutureEpochStaysLocked(t *testing.T, sc *Scheme, root *hibe.RootKey) {
	msg := []byte("not until epoch 12")
	ct, err := sc.Encrypt(nil, root.Pub, 12, msg)
	if err != nil {
		t.Fatal(err)
	}
	cover, err := sc.PublishCover(root, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Decrypt(cover, 12, ct); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("future epoch: err=%v, want ErrNotCovered", err)
	}
}

func TestCoverSizeLogarithmic(t *testing.T) {
	sc, _ := setup(t, "Test160", 16) // 65536 epochs
	worst := 0
	for _, tt := range []uint64{0, 1, 1000, 32767, 65534, 65535} {
		n, err := sc.CoverSize(tt)
		if err != nil {
			t.Fatal(err)
		}
		if n > worst {
			worst = n
		}
	}
	if worst > sc.Depth+1 {
		t.Fatalf("cover size %d exceeds depth+1 = %d", worst, sc.Depth+1)
	}
}

func TestNewSchemeValidation(t *testing.T) {
	set := params.MustPreset("Test160")
	for _, d := range []int{0, -1, 63, 100} {
		if _, err := NewScheme(set, d); err == nil {
			t.Errorf("depth %d must be rejected", d)
		}
	}
}

func TestCoverSerialisationAndVerification(t *testing.T) {
	onBothBackends(t, 6, testCoverSerialisationAndVerification)
}

func testCoverSerialisationAndVerification(t *testing.T, sc *Scheme, root *hibe.RootKey) {
	cover, err := sc.PublishCover(root, 37)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip.
	enc := sc.MarshalCover(cover)
	back, err := sc.UnmarshalCover(enc)
	if err != nil {
		t.Fatalf("UnmarshalCover: %v", err)
	}
	if len(back) != len(cover) {
		t.Fatalf("cover size changed: %d vs %d", len(back), len(cover))
	}
	// Verification against the root public key.
	if !sc.VerifyCover(root.Pub, back) {
		t.Fatal("genuine cover must verify")
	}
	// The decoded cover must actually work.
	msg := []byte("decoded cover decrypts")
	ct, err := sc.Encrypt(nil, root.Pub, 20, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Decrypt(back, 20, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt with decoded cover: %q %v", got, err)
	}

	// Tampering: corrupt one bundle's S point → verification fails.
	tampered := make([]hibe.NodeKey, len(back))
	copy(tampered, back)
	tampered[0].S = sc.H.Set.B.Add(backend.G2, tampered[0].S, sc.H.Set.G2)
	if sc.VerifyCover(root.Pub, tampered) {
		t.Fatal("tampered cover must not verify")
	}
	// A cover from a different root must not verify.
	otherRoot, err := sc.H.RootKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	alien, err := sc.PublishCover(otherRoot, 37)
	if err != nil {
		t.Fatal(err)
	}
	if sc.VerifyCover(root.Pub, alien) {
		t.Fatal("cover from another root must not verify")
	}

	// Malformed encodings.
	for name, data := range map[string][]byte{
		"empty":     {},
		"truncated": enc[:len(enc)-3],
		"trailing":  append(append([]byte{}, enc...), 1),
		"zero size": {0, 0},
	} {
		if _, err := sc.UnmarshalCover(data); err == nil {
			t.Errorf("%s: must fail", name)
		}
	}
}

func TestDelegationScalarIsNotTrustBearing(t *testing.T) {
	onBothBackends(t, 4, testDelegationScalarIsNotTrustBearing)
}

func testDelegationScalarIsNotTrustBearing(t *testing.T, sc *Scheme, root *hibe.RootKey) {
	// The delegation scalar is NOT what verification anchors — and it
	// doesn't have to be. A mirror that substitutes a different (known)
	// delegation scalar produces children that are still self-consistent
	// and still decrypt correctly, because decryption cancels every
	// Q-dependent term: the security anchor is the unforgeable s·P₁
	// component pinned by Q₀ = sG. Assert both halves of that invariant.
	k, err := sc.H.NodeFor(root, []string{"0", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.H.VerifyNodeKey(root.Pub, k) {
		t.Fatal("genuine bundle must verify")
	}

	rerandomised := k
	rerandomised.Delegation = new(big.Int).Add(k.Delegation, big.NewInt(1))
	if rerandomised.Delegation.Cmp(sc.H.Set.Q) >= 0 {
		rerandomised.Delegation = big.NewInt(1)
	}
	child := sc.H.Child(rerandomised, "0")
	if !sc.H.VerifyNodeKey(root.Pub, child) {
		t.Fatal("self-consistent re-randomised child must verify")
	}
	// ...and it is a WORKING key for its path (epoch 0b0100 = 4).
	msg := []byte("re-randomised delegation still decrypts")
	ct, err := sc.Encrypt(nil, root.Pub, 4, msg)
	if err != nil {
		t.Fatal(err)
	}
	leaf := sc.H.Child(child, "0")
	got, err := sc.H.Decrypt(leaf, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt via re-randomised chain: %q %v", got, err)
	}

	// What CANNOT pass: a forged S (the anchored component).
	forged := k
	forged.S = sc.H.Set.B.Add(backend.G2, k.S, sc.H.Set.G2)
	if sc.H.VerifyNodeKey(root.Pub, forged) {
		t.Fatal("forged S must not verify")
	}
}
