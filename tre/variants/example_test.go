package variants_test

import (
	"fmt"

	"timedrelease/tre"
	"timedrelease/tre/variants"
)

// Policy locks (§5.3.2): witness-attested conditions instead of time.
func ExamplePolicyScheme() {
	set := tre.MustPreset("Test160")
	scheme := tre.NewScheme(set)
	pl := variants.NewPolicyScheme(set)
	witness, _ := scheme.ServerKeyGen(nil)
	alice, _ := scheme.UserKeyGen(witness.Pub, nil)

	policy, _ := variants.ParsePolicy("ceo approves & cfo approves | emergency")
	ct, _ := pl.Encrypt(nil, witness.Pub, alice.Pub, policy, []byte("break glass"))

	atts := []variants.Attestation{pl.Attest(witness, "emergency")}
	msg, _ := pl.Decrypt(alice, atts, ct)
	fmt.Printf("%s\n", msg)
	// Output:
	// break glass
}
