package wire

// This file regenerates the golden vectors when run with
//   go test ./internal/wire -run TestPrintGoldenVectors -golden-print
// The printed entries are pasted into golden_test.go.

import (
	"bytes"
	"flag"
	"fmt"
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/baseline/bfibe"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/hibe"
	"timedrelease/internal/idtre"
	"timedrelease/internal/multiserver"
	"timedrelease/internal/params"
	"timedrelease/internal/policylock"
)

var goldenPrint = flag.Bool("golden-print", false, "print golden vectors")

func goldenFixtures(tb testing.TB) (*Codec, *core.Scheme, *core.ServerKeyPair, *core.UserKeyPair) {
	tb.Helper()
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	// Fixed scalars: nothing random anywhere.
	server, err := bls.NewPrivateKey(set, set.G, big.NewInt(0x1234567))
	if err != nil {
		tb.Fatal(err)
	}
	user, err := sc.UserKeyFromScalar(server.Pub, big.NewInt(0x89abcde))
	if err != nil {
		tb.Fatal(err)
	}
	return NewCodec(set), sc, server, user
}

// constReader yields a repeating byte pattern — a deterministic "rng".
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// goldenVector is one named encoding the golden constants pin.
type goldenVector struct {
	name string
	enc  []byte
}

// goldenObjects derives every pinned encoding from fixed scalars and
// the constant "rng": the core objects first, then one ciphertext (or
// key) per scheme variant. Variants without a codec method of their own
// are framed with the codec method of the same shape.
func goldenObjects(tb testing.TB) []goldenVector {
	tb.Helper()
	codec, sc, server, user := goldenFixtures(tb)
	set := codec.Set
	rng := constReader(0x5a)
	const label = "2026-07-05T12:00:00Z"
	msg := []byte("golden message")
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}

	ct, err := sc.EncryptCCA(rng, server.Pub, user.Pub, label, msg)
	must(err)
	out := []goldenVector{
		{"server public key", codec.MarshalServerPublicKey(server.Pub)},
		{"user public key", codec.MarshalUserPublicKey(user.Pub)},
		{"key update", codec.MarshalKeyUpdate(sc.IssueUpdate(server, label))},
		{"sealed envelope", codec.SealCCA(label, ct)},
	}

	id := idtre.NewScheme(set)
	idCT, err := id.EncryptCCA(rng, server.Pub, "alice", label, msg)
	must(err)
	out = append(out, goldenVector{"idtre cca ciphertext",
		codec.MarshalCCACiphertext(&core.CCACiphertext{U: idCT.U, W: idCT.W, V: idCT.V})})

	ts, err := bls.NewPrivateKey(set, set.G, big.NewInt(0x7654321))
	must(err)
	splitCT, err := id.SplitEncrypt(rng, server.Pub, ts.Pub, "alice", label, msg)
	must(err)
	out = append(out, goldenVector{"idtre split ciphertext",
		codec.MarshalIDCiphertext(&idtre.Ciphertext{U: splitCT.U, V: splitCT.V})})

	pl := policylock.NewScheme(set)
	policy, err := policylock.ParsePolicy("board ok & audit ok | emergency")
	must(err)
	plCT, err := pl.EncryptCCA(rng, server.Pub, user.Pub, policy, msg)
	must(err)
	out = append(out, goldenVector{"policy cca ciphertext",
		codec.MarshalPolicyCiphertext(&policylock.Ciphertext{Policy: plCT.Policy, Headers: plCT.Headers, V: plCT.V})})

	ms := multiserver.NewScheme(set)
	g2 := set.B.ScalarMult(backend.G1, big.NewInt(0xabcdef), set.G)
	server2, err := bls.NewPrivateKey(set, g2, big.NewInt(0x7654321))
	must(err)
	group := multiserver.ServerGroup{server.Pub, server2.Pub}
	msUser, err := ms.UserKeyFromScalar(group, big.NewInt(0x89abcde))
	must(err)
	msCT, err := ms.Encrypt(rng, group, msUser.Pub, label, msg)
	must(err)
	out = append(out, goldenVector{"multiserver ciphertext", codec.MarshalMultiCiphertext(msCT)})

	h := hibe.NewScheme(set, "golden")
	root, err := h.RootKeyGen(rng)
	must(err)
	path := []string{"2026", "07", "05"}
	node, err := h.NodeFor(root, path)
	must(err)
	hCT, err := h.Encrypt(rng, root.Pub, path, msg)
	must(err)
	out = append(out,
		goldenVector{"hibe node key", h.MarshalNodeKey(node)},
		goldenVector{"hibe ciphertext", h.MarshalCiphertext(hCT)})

	ibe := bfibe.NewScheme(set)
	master, err := ibe.MasterKeyGen(rng)
	must(err)
	ibeCT, err := ibe.Encrypt(rng, master.Pub, "alice", msg)
	must(err)
	out = append(out, goldenVector{"bfibe ciphertext",
		codec.MarshalIDCiphertext(&idtre.Ciphertext{U: ibeCT.U, V: ibeCT.V})})
	return out
}

func TestPrintGoldenVectors(t *testing.T) {
	if !*goldenPrint {
		t.Skip("pass -golden-print to regenerate")
	}
	for _, v := range goldenObjects(t) {
		fmt.Printf("%q: %q,\n", v.name, fmt.Sprintf("%x", v.enc))
	}
}

// TestGoldenDeterminism double-checks the fixtures really are
// deterministic (two independent derivations agree) before golden_test
// compares them against the recorded constants.
func TestGoldenDeterminism(t *testing.T) {
	a, b := goldenObjects(t), goldenObjects(t)
	for i := range a {
		if !bytes.Equal(a[i].enc, b[i].enc) {
			t.Fatalf("%s is not deterministic", a[i].name)
		}
	}
}
