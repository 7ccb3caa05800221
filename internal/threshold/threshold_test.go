package threshold

import (
	"bytes"
	"errors"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

const label = "2026-07-05T12:00:00Z"

func deal(t *testing.T, k, n int) (*params.Set, *Setup) {
	t.Helper()
	set := params.MustPreset("Test160")
	setup, err := Deal(set, nil, k, n)
	if err != nil {
		t.Fatalf("Deal: %v", err)
	}
	return set, setup
}

func TestAnyKOfNSubsetsCombine(t *testing.T) {
	set, setup := deal(t, 3, 5)
	sc := core.NewScheme(set)

	partials := make([]PartialUpdate, setup.N)
	for i, sh := range setup.Shares {
		partials[i] = IssuePartial(set, sh, label)
		if !VerifyPartial(set, sh.Pub, partials[i]) {
			t.Fatalf("partial %d failed verification", sh.Index)
		}
	}

	// Every 3-subset of the 5 servers must reconstruct the same update.
	var reference core.KeyUpdate
	first := true
	subsets := [][]int{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {2, 3, 4}, {1, 3, 4}, {0, 2, 4}}
	for _, idx := range subsets {
		sub := []PartialUpdate{partials[idx[0]], partials[idx[1]], partials[idx[2]]}
		upd, err := Combine(set, setup.GroupPub, sub, setup.K)
		if err != nil {
			t.Fatalf("Combine(%v): %v", idx, err)
		}
		if !sc.VerifyUpdate(setup.GroupPub, upd) {
			t.Fatalf("combined update from %v does not verify", idx)
		}
		if first {
			reference = upd
			first = false
			continue
		}
		if !set.B.Equal(backend.G2, upd.Point, reference.Point) {
			t.Fatalf("subset %v produced a different update", idx)
		}
	}
}

func TestCombinedUpdateDecryptsTRE(t *testing.T) {
	// The combined update must be a drop-in replacement in the ordinary
	// scheme: encrypt to the GROUP public key, decrypt with the
	// threshold-combined update.
	set, setup := deal(t, 2, 3)
	sc := core.NewScheme(set)
	user, err := sc.UserKeyGen(setup.GroupPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("opened by any 2 of 3 time servers")
	ct, err := sc.Encrypt(nil, setup.GroupPub, user.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}
	partials := []PartialUpdate{
		IssuePartial(set, setup.Shares[0], label),
		IssuePartial(set, setup.Shares[2], label),
	}
	upd, err := Combine(set, setup.GroupPub, partials, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Decrypt(user, upd, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("threshold round trip mismatch")
	}
}

func TestFewerThanKFails(t *testing.T) {
	set, setup := deal(t, 3, 5)
	partials := []PartialUpdate{
		IssuePartial(set, setup.Shares[0], label),
		IssuePartial(set, setup.Shares[1], label),
	}
	if _, err := Combine(set, setup.GroupPub, partials, setup.K); err == nil {
		t.Fatal("k-1 partials must not combine")
	}
}

func TestDuplicateIndicesRejected(t *testing.T) {
	set, setup := deal(t, 2, 3)
	p := IssuePartial(set, setup.Shares[0], label)
	if _, err := Combine(set, setup.GroupPub, []PartialUpdate{p, p}, 2); err == nil {
		t.Fatal("duplicated partial must not count twice")
	}
}

func TestCorruptPartialDetected(t *testing.T) {
	set, setup := deal(t, 2, 3)
	good := IssuePartial(set, setup.Shares[0], label)
	bad := IssuePartial(set, setup.Shares[1], label)
	bad.Point = set.B.Add(backend.G2, bad.Point, set.G2)

	if VerifyPartial(set, setup.Shares[1].Pub, bad) {
		t.Fatal("corrupt partial must fail individual verification")
	}
	// Even if the caller skips per-partial verification, Combine's final
	// self-authentication check catches the bad subset.
	if _, err := Combine(set, setup.GroupPub, []PartialUpdate{good, bad}, 2); !errors.Is(err, ErrBadCombination) {
		t.Fatalf("Combine with corrupt partial: err=%v, want ErrBadCombination", err)
	}
}

func TestMixedLabelsRejected(t *testing.T) {
	set, setup := deal(t, 2, 3)
	a := IssuePartial(set, setup.Shares[0], label)
	b := IssuePartial(set, setup.Shares[1], "another label")
	if _, err := Combine(set, setup.GroupPub, []PartialUpdate{a, b}, 2); !errors.Is(err, core.ErrLabelMismatch) {
		t.Fatalf("mixed labels: err=%v, want ErrLabelMismatch", err)
	}
}

func TestPartialsAloneDoNotVerifyAsGroupUpdate(t *testing.T) {
	// k−1 colluding servers hold partials, but a partial is not the
	// update: it fails the group self-authentication check.
	set, setup := deal(t, 2, 3)
	sc := core.NewScheme(set)
	p := IssuePartial(set, setup.Shares[0], label)
	if sc.VerifyUpdate(setup.GroupPub, core.KeyUpdate{Label: label, Point: p.Point}) {
		t.Fatal("a partial must not verify as the group update")
	}
}

func TestDealValidation(t *testing.T) {
	set := params.MustPreset("Test160")
	for _, kn := range [][2]int{{0, 3}, {4, 3}, {-1, 2}} {
		if _, err := Deal(set, nil, kn[0], kn[1]); err == nil {
			t.Errorf("Deal(k=%d,n=%d) must fail", kn[0], kn[1])
		}
	}
	// k = n = 1 degenerates to a single server and must still work.
	setup, err := Deal(set, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := IssuePartial(set, setup.Shares[0], label)
	upd, err := Combine(set, setup.GroupPub, []PartialUpdate{p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !core.NewScheme(set).VerifyUpdate(setup.GroupPub, upd) {
		t.Fatal("1-of-1 combine must verify")
	}
}

func TestPartialEncodingRoundTrip(t *testing.T) {
	set, setup := deal(t, 2, 3)
	pu := IssuePartial(set, setup.Shares[1], label)
	enc := MarshalPartial(set, pu)
	back, err := UnmarshalPartial(set, enc)
	if err != nil {
		t.Fatalf("UnmarshalPartial: %v", err)
	}
	if back.Index != pu.Index || back.Label != pu.Label || !set.B.Equal(backend.G2, back.Point, pu.Point) {
		t.Fatal("round trip mismatch")
	}
	if !VerifyPartial(set, setup.Shares[1].Pub, back) {
		t.Fatal("decoded partial must verify")
	}
	// Malformed inputs.
	for name, data := range map[string][]byte{
		"empty":      {},
		"zero index": append([]byte{0, 0}, enc[2:]...),
		"short":      enc[:len(enc)-1],
		"trailing":   append(append([]byte{}, enc...), 0),
	} {
		if _, err := UnmarshalPartial(set, data); err == nil {
			t.Errorf("%s: must fail", name)
		}
	}
}
