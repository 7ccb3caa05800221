package hibe

import (
	"bytes"
	"testing"

	"timedrelease/internal/backend"
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
