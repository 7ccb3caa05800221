// Missing-update resilience (paper §6, future work): a receiver comes
// back from three weeks offline.
//
// Two recovery paths are shown side by side:
//
//  1. the paper's own answer — the flat archive: download one update per
//     missed epoch (here via the batched catch-up verifier, one pairing
//     equation for the whole backlog);
//  2. the future-work construction built in this repository — the HIBE
//     time tree: download a single O(log N) cover of the past and derive
//     any missed epoch's key locally.
package main

import (
	"fmt"
	"log"

	"timedrelease/internal/backend"
	"timedrelease/tre"
)

func main() {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)

	// --- Path 1: flat updates + archive -------------------------------
	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		log.Fatal(err)
	}
	alice, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		log.Fatal(err)
	}

	// While Alice was offline, messages were released at many epochs.
	const missed = 24
	labels := make([]string, missed)
	cts := make([]*tre.Ciphertext, missed)
	for i := range labels {
		labels[i] = fmt.Sprintf("2026-06-%02dT12:00:00Z", i+1)
		ct, err := scheme.Encrypt(nil, server.Pub, alice.Pub, labels[i],
			[]byte(fmt.Sprintf("daily briefing #%d", i+1)))
		if err != nil {
			log.Fatal(err)
		}
		cts[i] = ct
	}

	// Alice returns and pulls the backlog from the archive. (In the live
	// system this is client.CatchUp, which batch-verifies the lot with
	// one pairing equation; here we use the library directly.)
	updates := make([]tre.KeyUpdate, missed)
	for i, l := range labels {
		updates[i] = scheme.IssueUpdate(server, l)
	}
	opened := 0
	for i := range cts {
		if _, err := scheme.Decrypt(alice, updates[i], cts[i]); err == nil {
			opened++
		}
	}
	fmt.Printf("flat archive: downloaded %d updates (%d bytes) to open %d briefings\n",
		missed, missed*set.B.PointLen(backend.G2), opened)

	// --- Path 2: HIBE time tree ----------------------------------------
	rs, err := tre.NewResilientScheme(set, 12) // 4096 epochs
	if err != nil {
		log.Fatal(err)
	}
	root, err := rs.H.RootKeyGen(nil)
	if err != nil {
		log.Fatal(err)
	}

	// A message released at epoch 1000; Alice reconnects at epoch 1021.
	sealed, err := rs.Encrypt(nil, root.Pub, 1000, []byte("tree-locked briefing"))
	if err != nil {
		log.Fatal(err)
	}
	cover, err := rs.PublishCover(root, 1021)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("time tree: the server's entire publication at epoch 1021 is %d key bundles (covers ALL %d past epochs)\n",
		len(cover), 1022)

	plain, err := rs.Decrypt(cover, 1000, sealed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived epoch-1000 key from the cover and opened: %q\n", plain)

	// Epoch 1030 is still the future — the cover cannot reach it.
	future, err := rs.Encrypt(nil, root.Pub, 1030, []byte("tomorrow's briefing"))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rs.Decrypt(cover, 1030, future); err != nil {
		fmt.Println("epoch 1030 stays locked:", err)
	}
}
