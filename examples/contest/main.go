// Internet programming contest — the paper's second §1 example.
//
// The organiser distributes the (large) problem set to every team well
// before the start so slow links cannot cause unfairness, encrypted with
// the hybrid AES-CTR+HMAC mode to the contest-start epoch. Teams all
// over the world hold the ciphertext but cannot open it; when the epoch
// arrives, the ONE broadcast update unlocks it for everyone
// simultaneously. Nobody registered anywhere: the time server does not
// know the contest, the organiser, or any team exists.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/tre"
)

func main() {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	sched := tre.MustSchedule(time.Second)

	timeServer, err := scheme.ServerKeyGen(nil)
	if err != nil {
		log.Fatal(err)
	}

	// Teams generate keys independently; the organiser collects their
	// public keys (certified by any CA — the time server is not involved).
	teamNames := []string{"Tokyo", "São Paulo", "Warsaw", "Nairobi", "Toronto"}
	teams := make(map[string]*tre.UserKeyPair, len(teamNames))
	for _, name := range teamNames {
		kp, err := scheme.UserKeyGen(timeServer.Pub, nil)
		if err != nil {
			log.Fatal(err)
		}
		teams[name] = kp
	}

	// A deliberately bulky problem set: the hybrid DEM handles it with
	// AES-CTR + HMAC instead of hashing the whole length.
	problemSet := []byte(strings.Repeat("Problem A: prove P != NP in O(1).\n", 4000))
	startLabel := sched.LabelAt(sched.Index(time.Now()) + 2)
	fmt.Printf("contest starts at %s; distributing %d KiB to %d teams early\n",
		startLabel, len(problemSet)/1024, len(teams))

	distributed := map[string]*tre.HybridCiphertext{}
	for name, team := range teams {
		ct, err := scheme.EncryptHybrid(nil, timeServer.Pub, team.Pub, startLabel, problemSet)
		if err != nil {
			log.Fatal(err)
		}
		distributed[name] = ct
	}
	fmt.Println("all teams hold the problems but none can read them")

	// Early decryption attempt with a stale update fails authentication.
	stale := scheme.IssueUpdate(timeServer, sched.LabelAt(sched.Index(time.Now())-100))
	if _, err := scheme.DecryptHybrid(teams["Tokyo"], stale, distributed["Tokyo"]); err != nil {
		fmt.Println("Tokyo tried a stale update:", err)
	}

	// The contest-start epoch arrives: one update for the whole planet.
	waitUntil(sched, startLabel)
	upd := scheme.IssueUpdate(timeServer, startLabel)
	fmt.Printf("update for %s broadcast (%d bytes, identical for every team)\n",
		upd.Label, set.B.PointLen(backend.G2))

	for name, team := range teams {
		plain, err := scheme.DecryptHybrid(team, upd, distributed[name])
		if err != nil {
			log.Fatalf("%s failed to open the problems: %v", name, err)
		}
		if !bytes.Equal(plain, problemSet) {
			log.Fatalf("%s got a corrupted problem set", name)
		}
		fmt.Printf("  %-10s opened the problem set at the same instant\n", name)
	}
}

// waitUntil sleeps until the labelled epoch has begun.
func waitUntil(sched tre.Schedule, label string) {
	start, err := sched.ParseLabel(label)
	if err != nil {
		log.Fatal(err)
	}
	if d := time.Until(start); d > 0 {
		time.Sleep(d)
	}
}
