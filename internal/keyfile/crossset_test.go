package keyfile

import (
	"errors"
	"path/filepath"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

// TestCrossBackendLoadRejected pins the set= guard across backend
// families: a key file written under the symmetric Test160 set must
// fail to load against the BLS12-381 set (and vice versa) with
// ErrSetMismatch — the name check fires before any point parsing, so
// the error names both sets instead of complaining about bad bytes.
func TestCrossBackendLoadRejected(t *testing.T) {
	symSet := params.MustPreset("Test160")
	blsSet := params.MustPreset(params.PresetBLS12381)
	dir := t.TempDir()

	symKey, err := core.NewScheme(symSet).ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	symPath := filepath.Join(dir, "sym.key")
	if err := SaveServerKey(symPath, symSet, symKey); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadServerKey(symPath, blsSet); !errors.Is(err, ErrSetMismatch) {
		t.Fatalf("Test160 key under BLS12-381 set: err=%v, want ErrSetMismatch", err)
	}

	blsSC := core.NewScheme(blsSet)
	blsKey, err := blsSC.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	blsPath := filepath.Join(dir, "bls.key")
	if err := SaveServerKey(blsPath, blsSet, blsKey); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadServerKey(blsPath, symSet); !errors.Is(err, ErrSetMismatch) {
		t.Fatalf("BLS12-381 key under Test160 set: err=%v, want ErrSetMismatch", err)
	}

	// Under the right set the BLS key file round-trips, including the
	// G2 mirror of the public key.
	back, err := LoadServerKey(blsPath, blsSet)
	if err != nil {
		t.Fatal(err)
	}
	if back.S.Cmp(blsKey.S) != 0 || !blsSet.B.Equal(backend.G1, back.Pub.SG, blsKey.Pub.SG) {
		t.Fatal("BLS key round trip mismatch")
	}

	// User key files carry the same guard.
	user, err := blsSC.UserKeyGen(blsKey.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	userPath := filepath.Join(dir, "user.key")
	if err := SaveUserKey(userPath, blsSet, user); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadUserKey(userPath, symSet); !errors.Is(err, ErrSetMismatch) {
		t.Fatalf("BLS user key under Test160 set: err=%v, want ErrSetMismatch", err)
	}
}
