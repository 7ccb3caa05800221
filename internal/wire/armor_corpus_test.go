package wire

// Regenerates the checked-in FuzzArmoredDecode seed corpus when run
// with
//   go test ./internal/wire -run TestWriteArmorFuzzCorpus -armor-corpus
// The corpus is deterministic (golden fixtures, constant "rng"), so a
// regeneration only changes the files when the format itself changes.

import (
	"encoding/base64"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var armorCorpus = flag.Bool("armor-corpus", false, "rewrite the FuzzArmoredDecode seed corpus")

func goldenArmoredFile(tb testing.TB) (*Codec, []byte) {
	tb.Helper()
	codec, sc, server, user := GoldenFixtures(tb)
	const label = "2026-01-01T00:07:00Z"
	ct, err := sc.EncryptCCA(ConstReader(0x5a), server.Pub, user.Pub, label, []byte("golden round message"))
	if err != nil {
		tb.Fatal(err)
	}
	a := Armored{
		Round:    7,
		Period:   time.Minute,
		Genesis:  time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		Envelope: codec.SealCCA(label, ct),
	}
	return codec, codec.EncodeArmored(a)
}

// rearmor wraps an already-built binary body in the armor framing
// (corpus generation only; production encoding goes through
// EncodeArmored).
func rearmor(body []byte) []byte {
	enc := base64.StdEncoding.EncodeToString(body)
	var b strings.Builder
	b.WriteString(armorBegin + "\n")
	for len(enc) > armorCols {
		b.WriteString(enc[:armorCols] + "\n")
		enc = enc[armorCols:]
	}
	b.WriteString(enc + "\n" + armorEnd + "\n")
	return []byte(b.String())
}

func TestWriteArmorFuzzCorpus(t *testing.T) {
	if !*armorCorpus {
		t.Skip("pass -armor-corpus to regenerate")
	}
	_, golden := goldenArmoredFile(t)

	truncated := golden[:2*len(golden)/3]

	bitflip := append([]byte(nil), golden...)
	bitflip[len(bitflip)/3] ^= 0x04

	// Same structure with the fingerprint bytes zeroed: decodes as far
	// as the fingerprint check and must stop there with
	// ErrParamsMismatch.
	body, err := unarmor(golden)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := append([]byte(nil), body...)
	for i := len(armorMagic); i < len(armorMagic)+8; i++ {
		mismatch[i] = 0
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzArmoredDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"seed-golden":          golden,
		"seed-truncated":       truncated,
		"seed-bitflip":         bitflip,
		"seed-params-mismatch": rearmor(mismatch),
		"seed-empty-body":      []byte(armorBegin + "\n" + armorEnd + "\n"),
	}
	for name, data := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", name, len(data))
	}
}
