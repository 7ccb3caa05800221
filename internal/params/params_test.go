package params

import (
	"math/big"
	"strings"
	"testing"

	"timedrelease/internal/backend"
)

func TestAllPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			set, err := Preset(name)
			if err != nil {
				t.Fatalf("Preset: %v", err)
			}
			if err := set.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestPresetIsCached(t *testing.T) {
	a := MustPreset("Test160")
	b := MustPreset("Test160")
	if a != b {
		t.Fatal("presets must be cached")
	}
}

func TestUnknownPreset(t *testing.T) {
	if _, err := Preset("NoSuchPreset"); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestGenerateSmall(t *testing.T) {
	set, err := Generate(nil, 128, 64)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("generated set does not validate: %v", err)
	}
	if set.P.BitLen() != 128 || set.Q.BitLen() != 64 {
		t.Fatalf("sizes: p=%d q=%d", set.P.BitLen(), set.Q.BitLen())
	}
}

func TestGenerateRejectsBadSizes(t *testing.T) {
	if _, err := Generate(nil, 64, 60); err == nil {
		t.Fatal("too-close sizes must be rejected")
	}
	if _, err := Generate(nil, 128, 8); err == nil {
		t.Fatal("tiny q must be rejected")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	set := MustPreset("Test160")
	data := set.Marshal()
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.P.Cmp(set.P) != 0 || back.Q.Cmp(set.Q) != 0 || back.Name != set.Name {
		t.Fatal("marshal round trip mismatch")
	}
	// The canonical generator must re-derive identically.
	if !set.B.Equal(backend.G1, back.G, set.G) {
		t.Fatal("generator derivation is not canonical")
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad header":   "not-params\np=3\nq=7\n",
		"missing p":    "tre-params-v1\nq=7\n",
		"malformed kv": "tre-params-v1\npequals3\n",
		"bad hex":      "tre-params-v1\np=zz\nq=7\n",
		"q nmid p+1":   "tre-params-v1\np=17\nq=b\n",
	}
	for name, data := range cases {
		if _, err := Unmarshal([]byte(data)); err == nil {
			t.Errorf("%s: Unmarshal must fail", name)
		}
	}
}

func TestFromPQRejections(t *testing.T) {
	set := MustPreset("Test160")
	if _, err := FromPQ("x", nil, set.Q); err == nil {
		t.Fatal("nil p must be rejected")
	}
	// q that does not divide p+1.
	if _, err := FromPQ("x", set.P, new(big.Int).Add(set.Q, big.NewInt(2))); err == nil {
		t.Fatal("non-dividing q must be rejected")
	}
}

// TestOversizeModulusIsAnError: the Type-1 field stops at 2048 bits.
// Every way into a parameter set must say so in one line that names the
// BLS12-381 backend — Generate before it spends minutes searching for
// primes.
func TestOversizeModulusIsAnError(t *testing.T) {
	// p = 3·2^2050 − 1 is odd, 2052 bits, and q = 3 divides p+1.
	q := big.NewInt(3)
	p := new(big.Int).Sub(new(big.Int).Lsh(q, 2050), big.NewInt(1))
	_, errFromPQ := FromPQ("wide", p, q)
	_, errUnmarshal := Unmarshal([]byte("tre-params-v1\nname=wide\np=" + p.Text(16) + "\nq=3\n"))
	_, errGenerate := Generate(nil, 3072, 256)
	for name, err := range map[string]error{"FromPQ": errFromPQ, "Unmarshal": errUnmarshal, "Generate": errGenerate} {
		if err == nil || !strings.Contains(err.Error(), "-backend bls12381") || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: err = %v, want a one-line error pointing at -backend bls12381", name, err)
		}
	}
	if _, err := Generate(nil, 2049, 256); err == nil {
		t.Error("Generate(2049) must fail")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := MustPreset("Test160")
	// Composite p.
	bad, err := FromPQ("bad", good.P, good.Q)
	if err != nil {
		t.Fatal(err)
	}
	bad.P = new(big.Int).Mul(big.NewInt(3), big.NewInt(5))
	if err := bad.Validate(); err == nil {
		t.Fatal("corrupted p must fail validation")
	}
	// Non-canonical generator.
	bad2, err := FromPQ("bad2", good.P, good.Q)
	if err != nil {
		t.Fatal(err)
	}
	bad2.G = bad2.B.Add(backend.G1, bad2.G, bad2.G)
	if err := bad2.Validate(); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Fatalf("non-canonical generator: err=%v", err)
	}
}

func TestPresetNamesSorted(t *testing.T) {
	names := PresetNames()
	if len(names) < 4 {
		t.Fatalf("expected at least 4 presets, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestFieldAccessor(t *testing.T) {
	set := MustPreset("Test160")
	if set.Field().P().Cmp(set.P) != 0 {
		t.Fatal("Field() modulus mismatch")
	}
}
