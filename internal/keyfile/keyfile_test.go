package keyfile

import (
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
	"timedrelease/internal/threshold"
	"timedrelease/internal/wire"
)

func TestServerKeyRoundTrip(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "server.key")
	if err := SaveServerKey(path, set, key); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("private key file mode %v, want 0600", info.Mode().Perm())
	}
	back, err := LoadServerKey(path, set)
	if err != nil {
		t.Fatal(err)
	}
	if back.S.Cmp(key.S) != 0 || !set.B.Equal(backend.G1, back.Pub.SG, key.Pub.SG) {
		t.Fatal("round trip mismatch")
	}
}

func TestUserKeyRoundTrip(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	server, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := sc.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "user.key")
	if err := SaveUserKey(path, set, user); err != nil {
		t.Fatal(err)
	}
	back, err := LoadUserKey(path, set)
	if err != nil {
		t.Fatal(err)
	}
	if back.A.Cmp(user.A) != 0 || !set.B.Equal(backend.G1, back.Pub.ASG, user.Pub.ASG) {
		t.Fatal("round trip mismatch")
	}
}

func TestLoadRejectsTamperedFiles(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "server.key")
	if err := SaveServerKey(path, set, key); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]string{
		"bad header":      strings.Replace(string(raw), "tre-key-v1", "nope", 1),
		"wrong type":      strings.Replace(string(raw), "type=server", "type=user", 1),
		"scalar mismatch": strings.Replace(string(raw), "scalar=", "scalar=1", 1),
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadServerKey(p, set); err == nil {
			t.Errorf("%s: load must fail", name)
		}
	}
}

func TestLoadRejectsOutOfRangeScalar(t *testing.T) {
	set := params.MustPreset("Test160")
	codec := wire.NewCodec(set)
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Scalar q (out of range) with a matching pub is impossible, but the
	// range check must fire before the match check.
	body := render(typeServer, set.Name, new(big.Int).Set(set.Q), codec.MarshalServerPublicKey(key.Pub))
	path := filepath.Join(t.TempDir(), "bad.key")
	if err := os.WriteFile(path, body, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadServerKey(path, set); err == nil {
		t.Fatal("out-of-range scalar must be rejected")
	}
}

func TestPublicRoundTrip(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := wire.NewCodec(set).MarshalServerPublicKey(key.Pub)
	path := filepath.Join(t.TempDir(), "server.pub")
	if err := SavePublic(path, enc); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPublic(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(enc) {
		t.Fatal("round trip mismatch")
	}
}

func TestShareRoundTrip(t *testing.T) {
	set := params.MustPreset("Test160")
	setup, err := threshold.Deal(set, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, share := range setup.Shares {
		path := filepath.Join(dir, "share.key")
		if err := SaveShare(path, set, setup, share); err != nil {
			t.Fatalf("SaveShare: %v", err)
		}
		loaded, err := LoadShare(path, set)
		if err != nil {
			t.Fatalf("LoadShare: %v", err)
		}
		if loaded.K != 2 || loaded.N != 3 || loaded.Share.Index != share.Index {
			t.Fatalf("metadata mismatch: %+v", loaded)
		}
		if loaded.Share.S.Cmp(share.S) != 0 {
			t.Fatal("scalar mismatch")
		}
		if !set.B.Equal(backend.G1, loaded.Share.Pub, share.Pub) {
			t.Fatal("pub mismatch")
		}
	}
}

func TestLoadShareRejectsTampering(t *testing.T) {
	set := params.MustPreset("Test160")
	setup, err := threshold.Deal(set, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "share.key")
	if err := SaveShare(path, set, setup, setup.Shares[0]); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"bad header": strings.Replace(string(raw), "tre-share-v1", "nah", 1),
		"bad index":  strings.Replace(string(raw), "index=1", "index=9", 1),
		"scalar":     strings.Replace(string(raw), "scalar=", "scalar=f", 1),
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShare(p, set); err == nil {
			t.Errorf("%s: LoadShare must fail", name)
		}
	}
}
