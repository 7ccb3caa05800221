package token

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"timedrelease/internal/params"
)

func testTokens(t *testing.T, set *params.Set, n int) (*Issuer, []Token) {
	t.Helper()
	iss, err := GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	pending, blinded, err := Blind(set, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := iss.SignBlinded(blinded)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := Unblind(set, iss.Public(), pending, signed)
	if err != nil {
		t.Fatal(err)
	}
	return iss, toks
}

// TestConcurrentDoubleSpend pins the acceptance criterion: concurrent
// redemption of ONE token admits exactly one caller. Run under
// -race -shuffle=on by `make ci`.
func TestConcurrentDoubleSpend(t *testing.T) {
	set := params.MustPreset("Test160")
	iss, toks := testTokens(t, set, 1)
	v := NewVerifier(set, iss.Public(), NewLedger())

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = v.Redeem(toks[0])
		}(i)
	}
	close(start)
	wg.Wait()

	admitted, doubled := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrDoubleSpend):
			doubled++
		default:
			t.Fatalf("unexpected redemption error: %v", err)
		}
	}
	if admitted != 1 || doubled != goroutines-1 {
		t.Fatalf("admitted %d, double-spend %d; want exactly 1 admission", admitted, doubled)
	}
}

// TestConcurrentSpendDistinct: many goroutines spending DISTINCT
// tokens against a durable ledger all succeed, and the log replays to
// the same set.
func TestConcurrentSpendDistinct(t *testing.T) {
	dir := t.TempDir()
	led, _, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
			if err := led.Spend(id); err != nil {
				t.Errorf("spend %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if led.Len() != n {
		t.Fatalf("ledger holds %d, want %d", led.Len(), n)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	led2, stats, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if stats.Spent != n || stats.Duplicates != 0 || stats.Truncated {
		t.Fatalf("recovery stats %+v, want %d clean spends", stats, n)
	}
	for i := 0; i < n; i++ {
		id := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		if !led2.Spent(id) {
			t.Fatalf("spend %d lost across restart", i)
		}
	}
}

// TestLedgerMergeKeepsServing spends 1,536 distinct IDs (enough to grow
// the set's map several times) and checks every one stays spent.
func TestLedgerMergeKeepsServing(t *testing.T) {
	led := NewLedger()
	const n = 1536
	ids := make([][32]byte, n)
	for i := range ids {
		ids[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8), 0xee})
		if err := led.Spend(ids[i]); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}
	for i, id := range ids {
		if !led.Spent(id) {
			t.Fatalf("id %d forgotten", i)
		}
		if err := led.Spend(id); !errors.Is(err, ErrDoubleSpend) {
			t.Fatalf("id %d re-admitted: %v", i, err)
		}
	}
	if led.Len() != n {
		t.Fatalf("ledger holds %d, want %d", led.Len(), n)
	}
}

// TestLedgerTornTailRecovery tears the spend.log tail (a crash
// mid-append) and proves recovery truncates it: fully recorded spends
// stay rejected, the token whose append was torn is back to unspent.
func TestLedgerTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	led, _, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	durable := sha256.Sum256([]byte("durable"))
	torn := sha256.Sum256([]byte("torn"))
	if err := led.Spend(durable); err != nil {
		t.Fatal(err)
	}
	if err := led.Spend(torn); err != nil {
		t.Fatal(err)
	}
	led.Close()

	// Tear the tail mid-record: drop the last 7 bytes (inside the
	// second record's payload+crc).
	path := filepath.Join(dir, SpendLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o600); err != nil {
		t.Fatal(err)
	}

	led2, stats, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if !stats.Truncated || stats.Spent != 1 {
		t.Fatalf("recovery stats %+v, want 1 spend and a truncated tail", stats)
	}
	if !led2.Spent(durable) {
		t.Fatal("durable spend lost")
	}
	if led2.Spent(torn) {
		t.Fatal("torn spend survived — the unacknowledged admission should be rolled back")
	}
	// The log keeps appending after recovery.
	if err := led2.Spend(torn); err != nil {
		t.Fatalf("re-spend after recovery: %v", err)
	}
}

// TestAuditSpendLog covers the read-only audit: healthy, torn and
// duplicated logs.
func TestAuditSpendLog(t *testing.T) {
	dir := t.TempDir()
	// Missing log: empty, healthy.
	stats, err := AuditSpendLog(dir)
	if err != nil || stats.Records != 0 || stats.Torn {
		t.Fatalf("missing log: stats %+v err %v", stats, err)
	}

	led, _, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := sha256.Sum256([]byte("a"))
	b := sha256.Sum256([]byte("b"))
	led.Spend(a)
	led.Spend(b)
	led.Close()

	stats, err = AuditSpendLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Duplicates != 0 || stats.Torn {
		t.Fatalf("clean log audit: %+v", stats)
	}

	// Tear it; the audit reports damage but does NOT repair it.
	path := filepath.Join(dir, SpendLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tornData := append(append([]byte{}, data...), 0xde, 0xad)
	if err := os.WriteFile(path, tornData, 0o600); err != nil {
		t.Fatal(err)
	}
	stats, err = AuditSpendLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Torn || stats.TornBytes != 2 {
		t.Fatalf("torn log audit: %+v", stats)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(tornData) {
		t.Fatal("audit modified the log")
	}
}

// TestLedgerFailsClosedOnPersistError: when the spend log cannot
// record an admission, the token is NOT admitted.
func TestLedgerFailsClosedOnPersistError(t *testing.T) {
	dir := t.TempDir()
	led, _, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Close the underlying log out from under the ledger: every
	// subsequent append fails.
	led.log.Close()
	id := sha256.Sum256([]byte("unpersistable"))
	if err := led.Spend(id); err == nil {
		t.Fatal("spend admitted without durable record")
	}
	if led.Spent(id) {
		t.Fatal("failed spend published to the in-memory set")
	}
}
