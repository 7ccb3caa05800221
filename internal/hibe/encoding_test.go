package hibe

import (
	"bytes"
	"encoding/hex"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/params"
)

func TestNodeKeyEncodingRoundTrip(t *testing.T) { onBothBackends(t, testNodeKeyEncodingRoundTrip) }

func testNodeKeyEncodingRoundTrip(t *testing.T, sc *Scheme, root *RootKey) {
	for _, path := range [][]string{{"0"}, {"0", "1"}, {"1", "0", "1", "1"}} {
		k, err := sc.NodeFor(root, path)
		if err != nil {
			t.Fatal(err)
		}
		enc := sc.MarshalNodeKey(k)
		back, err := sc.UnmarshalNodeKey(enc)
		if err != nil {
			t.Fatalf("UnmarshalNodeKey(%v): %v", path, err)
		}
		if len(back.Path) != len(k.Path) {
			t.Fatal("path length changed")
		}
		for i := range k.Path {
			if back.Path[i] != k.Path[i] {
				t.Fatal("path changed")
			}
		}
		if !sc.Set.B.Equal(backend.G2, back.S, k.S) || back.Delegation.Cmp(k.Delegation) != 0 {
			t.Fatal("key material changed")
		}
		// The decoded bundle must still WORK: delegate one level and
		// decrypt.
		child := sc.Child(back, "x")
		msg := []byte("decoded bundle delegates")
		ct, err := sc.Encrypt(nil, root.Pub, append(append([]string(nil), path...), "x"), msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Decrypt(child, ct)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("decoded bundle failed to delegate: %q %v", got, err)
		}
	}
}

func TestNodeKeyEncodingRejectsMalformed(t *testing.T) {
	onBothBackends(t, testNodeKeyEncodingRejectsMalformed)
}

func testNodeKeyEncodingRejectsMalformed(t *testing.T, sc *Scheme, root *RootKey) {
	k, err := sc.NodeFor(root, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	enc := sc.MarshalNodeKey(k)

	cases := map[string][]byte{
		"empty":     {},
		"truncated": enc[:len(enc)-2],
		"trailing":  append(append([]byte{}, enc...), 7),
		"zero path": append([]byte{0, 0}, enc[2:]...),
	}
	for name, data := range cases {
		if _, err := sc.UnmarshalNodeKey(data); err == nil {
			t.Errorf("%s: must fail", name)
		}
	}
}

func TestTreeCiphertextEncodingRoundTrip(t *testing.T) {
	onBothBackends(t, testTreeCiphertextEncodingRoundTrip)
}

func testTreeCiphertextEncodingRoundTrip(t *testing.T, sc *Scheme, root *RootKey) {
	path := []string{"0", "1", "1"}
	msg := []byte("tree ciphertext on the wire")
	ct, err := sc.Encrypt(nil, root.Pub, path, msg)
	if err != nil {
		t.Fatal(err)
	}
	enc := sc.MarshalCiphertext(ct)
	back, err := sc.UnmarshalCiphertext(enc)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sc.NodeFor(root, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Decrypt(key, back)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt after round trip: %q %v", got, err)
	}
	if _, err := sc.UnmarshalCiphertext(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated ciphertext must fail")
	}
	if _, err := sc.UnmarshalCiphertext(append(enc, 1)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// FuzzHIBEDecode feeds every input to both decoders: each must reject it
// or decode it to an object that re-encodes to the same bytes. The
// seeds are the "hibe node key" and "hibe ciphertext" golden vectors of
// internal/wire/golden_test.go (Test160, depth 3).
func FuzzHIBEDecode(f *testing.F) {
	for _, seed := range []string{
		"00030004323032360002303700023035033fcc25f8b418017a4e1a32269fa1f9f04b106ec768222d3e9106191715010002024f77c85e6e1f6a434f1517290a0df9ad813d802e036f2f4c6556e418d9734682c30c50bb7e3bf1ec32",
		"02ad48e094109b8f98b1e3da125be3afa69bcee1f000020331c4cc530e06c8d89ae04fab3f398e68fec4c69e02b0d8c2cd7234b4fb6a421ef86bac6aa6ea8e3b690000000e46377d585ab9b4891d52abe0cab5",
	} {
		b, err := hex.DecodeString(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	sc := NewScheme(params.MustPreset("Test160"), "golden")
	f.Fuzz(func(t *testing.T, data []byte) {
		if k, err := sc.UnmarshalNodeKey(data); err == nil && !bytes.Equal(sc.MarshalNodeKey(k), data) {
			t.Fatalf("node key decode/encode not canonical")
		}
		if ct, err := sc.UnmarshalCiphertext(data); err == nil && !bytes.Equal(sc.MarshalCiphertext(ct), data) {
			t.Fatalf("tree ciphertext decode/encode not canonical")
		}
	})
}
