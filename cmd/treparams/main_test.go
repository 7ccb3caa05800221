package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListShowValidate(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
	if err := run([]string{"show", "-preset", "Test160"}); err != nil {
		t.Fatalf("show: %v", err)
	}
	if err := run([]string{"show", "-preset", "NoSuch"}); err == nil {
		t.Fatal("show unknown preset must fail")
	}
}

func TestGenAndValidateFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.params")
	if err := run([]string{"gen", "-pbits", "128", "-qbits", "64", "-out", out}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := run([]string{"validate", "-in", out}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Corrupt it: flip a digit of p.
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, len(raw))
	copy(bad, raw)
	for i := range bad {
		if bad[i] == 'p' && i+3 < len(bad) && bad[i+1] == '=' {
			if bad[i+2] == '1' {
				bad[i+2] = '2'
			} else {
				bad[i+2] = '1'
			}
			break
		}
	}
	if err := os.WriteFile(out, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", "-in", out}); err == nil {
		t.Fatal("validate of corrupted params must fail")
	}
}

// TestGenRejectsOversizeField: a field wider than the Type-1 stack
// supports is refused at once with a pointer to the BLS12-381 backend.
func TestGenRejectsOversizeField(t *testing.T) {
	err := run([]string{"gen", "-pbits", "3072", "-qbits", "256"})
	if err == nil || !strings.Contains(err.Error(), "-backend bls12381") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("gen -pbits 3072: err = %v, want a one-line error pointing at -backend bls12381", err)
	}
}

func TestBadUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no args must fail")
	}
	if err := run([]string{"validate"}); err == nil {
		t.Fatal("validate without -in must fail")
	}
}
