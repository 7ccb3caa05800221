package core

import (
	"bytes"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/params"
)

// TestRoundTripAcrossBackendsAndPresets is the end-to-end differential
// check of the production symmetric stack: at the fast test preset, the
// paper-scale SS512 and (unless -short) the 16-limb SS1024, a full
// Encrypt/Decrypt round trip must succeed, and the scheme's own key
// material and pairing value must agree bit-for-bit with the affine
// math/big oracle.
func TestRoundTripAcrossBackendsAndPresets(t *testing.T) {
	for _, name := range []string{"Test160", "SS512", "SS1024"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "SS1024" {
				t.Skip("16-limb row skipped under -short")
			}
			set := params.MustPreset(name)
			sc := NewScheme(set)
			server, err := sc.ServerKeyGen(nil)
			if err != nil {
				t.Fatal(err)
			}
			user, err := sc.UserKeyGen(server.Pub, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Key material must match the affine oracle ladder exactly.
			c, pr := set.B.(*backend.Symmetric).Type1()
			if !c.Equal(user.Pub.AG, c.ScalarMultAffine(user.A, set.G)) ||
				!c.Equal(user.Pub.ASG, c.ScalarMultAffine(user.A, server.Pub.SG)) {
				t.Fatal("fixed-base keygen disagrees with the oracle ladder")
			}

			// The pairing must agree with the oracle on the scheme's own
			// points.
			upd := sc.IssueUpdate(server, testLabel)
			h := sc.hashLabel(testLabel)
			if !set.B.GTEqual(
				set.B.Pair(user.Pub.ASG, h),
				pr.PairAffine(user.Pub.ASG, h),
			) {
				t.Fatal("Pair and PairAffine disagree on scheme points")
			}

			msg := []byte("release at T, not before")
			ct, err := sc.Encrypt(nil, server.Pub, user.Pub, testLabel, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.Decrypt(user, upd, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatal("round trip mismatch")
			}

			cca, err := sc.EncryptCCA(nil, server.Pub, user.Pub, testLabel, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sc.DecryptCCA(server.Pub, user, upd, cca)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatal("CCA round trip mismatch")
			}
		})
	}
}
