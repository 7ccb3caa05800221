package tre_test

import (
	"fmt"
	"log"

	"timedrelease/tre"
)

// The complete paper flow: passive server, one broadcast update, both
// keys needed to decrypt.
func Example() {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)

	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		log.Fatal(err)
	}
	alice, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		log.Fatal(err)
	}

	const releaseAt = "2027-01-01T00:00:00Z"
	ct, err := scheme.EncryptCCA(nil, server.Pub, alice.Pub, releaseAt, []byte("happy new year"))
	if err != nil {
		log.Fatal(err)
	}

	// The instant arrives: one self-authenticating update for everyone.
	upd := scheme.IssueUpdate(server, releaseAt)
	fmt.Println("update verifies:", scheme.VerifyUpdate(server.Pub, upd))

	msg, err := scheme.DecryptCCA(server.Pub, alice, upd, ct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened: %s\n", msg)
	// Output:
	// update verifies: true
	// opened: happy new year
}

// Key insulation (§5.3.3): the insecure device holds only the epoch key.
func ExampleScheme_DeriveEpochKey() {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	server, _ := scheme.ServerKeyGen(nil)
	alice, _ := scheme.UserKeyGen(server.Pub, nil)

	const label = "2026-07-05T12:00:00Z"
	ct, _ := scheme.Encrypt(nil, server.Pub, alice.Pub, label, []byte("for the laptop"))

	upd := scheme.IssueUpdate(server, label)
	epochKey := scheme.DeriveEpochKey(alice, upd) // on the smart card

	msg, _ := scheme.DecryptWithEpochKey(epochKey, ct) // on the laptop
	fmt.Printf("%s\n", msg)
	// Output:
	// for the laptop
}

// Threshold time servers: any 2 of 3 shards release the epoch.
func ExampleThresholdDeal() {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	setup, _ := tre.ThresholdDeal(set, nil, 2, 3)
	alice, _ := scheme.UserKeyGen(setup.GroupPub, nil)

	const label = "2027-01-01T00:00:00Z"
	ct, _ := scheme.EncryptCCA(nil, setup.GroupPub, alice.Pub, label, []byte("quorum-released"))

	partials := []tre.PartialUpdate{
		tre.IssuePartialUpdate(set, setup.Shares[0], label),
		tre.IssuePartialUpdate(set, setup.Shares[2], label),
	}
	upd, _ := tre.CombinePartialUpdates(set, setup.GroupPub, partials, 2)
	msg, _ := scheme.DecryptCCA(setup.GroupPub, alice, upd, ct)
	fmt.Printf("%s\n", msg)
	// Output:
	// quorum-released
}
