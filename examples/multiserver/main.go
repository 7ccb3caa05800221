// Multiple time servers (paper §5.3.5): the sender distrusts any single
// time authority, so she locks her message under THREE independent
// servers — say NIST, PTB and NICT. The receiver needs his private key
// plus all three epoch updates; early release now requires colluding
// with every one of them.
package main

import (
	"fmt"
	"log"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/tre"
)

func main() {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	multi := tre.NewMultiScheme(set)

	// Three independent time servers, each with its own generator and
	// key — they need not know of each other's existence.
	names := []string{"NIST", "PTB", "NICT"}
	var (
		servers []*tre.ServerKeyPair
		group   tre.ServerGroup
	)
	for range names {
		k, err := set.B.RandScalar(nil)
		if err != nil {
			log.Fatal(err)
		}
		kp, err := bls.GenerateKeyWithGenerator(set, set.B.ScalarMult(backend.G1, k, set.G), nil)
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, kp)
		group = append(group, kp.Pub)
	}
	fmt.Printf("sender chose %d independent time servers\n", len(group))

	// The receiver derives a combined key a·Σ sᵢGᵢ for exactly this
	// group — same private scalar, no re-certification (the sender
	// verifies it against the certified aG inside Encrypt).
	receiver, err := multi.UserKeyGen(group, nil)
	if err != nil {
		log.Fatal(err)
	}

	const release = "2027-01-01T00:00:00Z"
	msg := []byte("released only when NIST, PTB and NICT all agree it is 2027")
	ct, err := multi.Encrypt(nil, group, receiver.Pub, release, msg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sealed with %d ciphertext headers, one per server\n", len(ct.Us))

	// Two of three updates are not enough: substitute one genuine update
	// with one for a different instant (as if that server refused).
	partial := make([]tre.KeyUpdate, len(servers))
	for i, s := range servers {
		partial[i] = scheme.IssueUpdate(s, release)
	}
	holdout := scheme.IssueUpdate(servers[2], "2026-12-31T23:00:00Z")
	holdout.Label = release // even relabelling the wrong update doesn't help
	partial[2] = holdout
	if got, err := multi.Decrypt(receiver, partial, ct); err != nil {
		fmt.Println("with 2/3 genuine updates: decryption error:", err)
	} else if string(got) != string(msg) {
		fmt.Println("with 2/3 genuine updates: output is garbage — message stays sealed")
	}

	// All three servers publish; the receiver combines them. The
	// implementation multiplies the three pairings under a single final
	// exponentiation.
	updates := make([]tre.KeyUpdate, len(servers))
	for i, s := range servers {
		updates[i] = scheme.IssueUpdate(s, release)
		fmt.Printf("  %s published its update for %s\n", names[i], release)
	}
	got, err := multi.Decrypt(receiver, updates, ct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened: %q\n", got)
}
