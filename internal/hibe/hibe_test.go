package hibe

import (
	"bytes"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/params"
)

// onBothBackends runs body with a fresh scheme and root on the paper's
// Type-1 setting and on BLS12-381.
func onBothBackends(t *testing.T, body func(*testing.T, *Scheme, *RootKey)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) {
			sc := NewScheme(params.MustPreset(preset), "test")
			root, err := sc.RootKeyGen(nil)
			if err != nil {
				t.Fatal(err)
			}
			body(t, sc, root)
		})
	}
}

func TestRoundTripAtDepths(t *testing.T) { onBothBackends(t, testRoundTripAtDepths) }

func testRoundTripAtDepths(t *testing.T, sc *Scheme, root *RootKey) {
	paths := [][]string{
		{"a"},
		{"a", "b"},
		{"a", "b", "c"},
		{"x", "y", "z", "w", "v"},
	}
	for _, path := range paths {
		msg := []byte("depth test")
		ct, err := sc.Encrypt(nil, root.Pub, path, msg)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", path, err)
		}
		if len(ct.Us) != len(path)-1 {
			t.Fatalf("ciphertext has %d extra points, want %d", len(ct.Us), len(path)-1)
		}
		key, err := sc.NodeFor(root, path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Decrypt(key, ct)
		if err != nil {
			t.Fatalf("Decrypt(%v): %v", path, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip mismatch at depth %d", len(path))
		}
	}
}

func TestDelegationMatchesDirectDerivation(t *testing.T) {
	onBothBackends(t, testDelegationMatchesDirectDerivation)
}

func testDelegationMatchesDirectDerivation(t *testing.T, sc *Scheme, root *RootKey) {
	// Walking child-by-child from a published ancestor bundle must yield
	// exactly the key the root computes directly.
	ancestor, err := sc.NodeFor(root, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	viaDelegation := sc.Child(sc.Child(ancestor, "c"), "d")
	direct, err := sc.NodeFor(root, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Set.B.Equal(backend.G2, viaDelegation.S, direct.S) {
		t.Fatal("delegated S differs from direct derivation")
	}
	if viaDelegation.Delegation.Cmp(direct.Delegation) != 0 {
		t.Fatal("delegated chain secret differs")
	}
	if len(viaDelegation.Qs) != len(direct.Qs) {
		t.Fatal("Q lists differ in length")
	}
	for i := range direct.Qs {
		if !sc.Set.B.Equal(backend.G1, viaDelegation.Qs[i], direct.Qs[i]) {
			t.Fatalf("Q[%d] differs", i)
		}
	}
}

func TestDescendantKeyDecrypts(t *testing.T) { onBothBackends(t, testDescendantKeyDecrypts) }

func testDescendantKeyDecrypts(t *testing.T, sc *Scheme, root *RootKey) {
	msg := []byte("addressed to a/b/c")
	ct, err := sc.Encrypt(nil, root.Pub, []string{"a", "b", "c"}, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Holder of the a/b bundle derives a/b/c and decrypts.
	ab, err := sc.NodeFor(root, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	leaf := sc.Child(ab, "c")
	got, err := sc.Decrypt(leaf, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("descendant-derived key must decrypt")
	}
}

func TestSiblingKeyDoesNotDecrypt(t *testing.T) { onBothBackends(t, testSiblingKeyDoesNotDecrypt) }

func testSiblingKeyDoesNotDecrypt(t *testing.T, sc *Scheme, root *RootKey) {
	msg := []byte("for a/b only")
	ct, err := sc.Encrypt(nil, root.Pub, []string{"a", "b"}, msg)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := sc.NodeFor(root, []string{"a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Decrypt(sibling, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("sibling key must not decrypt")
	}
}

func TestDepthMismatchRejected(t *testing.T) { onBothBackends(t, testDepthMismatchRejected) }

func testDepthMismatchRejected(t *testing.T, sc *Scheme, root *RootKey) {
	ct, err := sc.Encrypt(nil, root.Pub, []string{"a", "b", "c"}, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := sc.NodeFor(root, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Decrypt(shallow, ct); err == nil {
		t.Fatal("depth mismatch must be rejected (derive the leaf first)")
	}
}

func TestDifferentRootsIndependent(t *testing.T) { onBothBackends(t, testDifferentRootsIndependent) }

func testDifferentRootsIndependent(t *testing.T, sc *Scheme, root *RootKey) {
	other, err := sc.RootKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("root A only")
	ct, err := sc.Encrypt(nil, root.Pub, []string{"a"}, msg)
	if err != nil {
		t.Fatal(err)
	}
	alien, err := sc.NodeFor(other, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Decrypt(alien, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("key under another root must not decrypt")
	}
}

func TestEmptyPathRejected(t *testing.T) { onBothBackends(t, testEmptyPathRejected) }

func testEmptyPathRejected(t *testing.T, sc *Scheme, root *RootKey) {
	if _, err := sc.Encrypt(nil, root.Pub, nil, []byte("m")); err == nil {
		t.Fatal("empty path must be rejected")
	}
	if _, err := sc.NodeFor(root, nil); err == nil {
		t.Fatal("empty path must be rejected")
	}
}

func TestPathFramingUnambiguous(t *testing.T) { onBothBackends(t, testPathFramingUnambiguous) }

func testPathFramingUnambiguous(t *testing.T, sc *Scheme, root *RootKey) {
	// ("ab") and ("a","b") must address different nodes.
	msg := []byte("m")
	ct, err := sc.Encrypt(nil, root.Pub, []string{"ab"}, msg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sc.NodeFor(root, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Decrypt(k, ct); err == nil {
		// Depth differs so this is rejected structurally — good. Also
		// check the depth-1 vs depth-1 case with different labels via
		// sibling test above.
		t.Fatal("depth mismatch must be rejected")
	}
}
