package timeserver

import (
	"context"
	"encoding/base64"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/token"
)

// gatedEnv is env plus token issuance and gating over a durable (or
// in-memory) spend ledger.
type gatedEnv struct {
	*env
	issuer *token.Issuer
	ledger *token.Ledger
	wallet *token.Wallet
	dir    string // "" → in-memory ledger
}

// newGatedEnv builds a -require-tokens style server: issuer + gate
// over dir (in-memory ledger when dir == ""), plus a wallet-carrying
// client.
func newGatedEnv(t *testing.T, dir string) *gatedEnv {
	t.Helper()
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	iss, err := token.GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	led := token.NewLedger()
	if dir != "" {
		var stats token.LedgerStats
		led, stats, err = token.OpenLedger(dir)
		if err != nil {
			t.Fatal(err)
		}
		_ = stats
	}
	sched := timefmt.MustSchedule(time.Minute)
	clock := &fakeClock{t: time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)}
	srv := NewServer(set, key, sched,
		WithClock(clock.Now),
		WithTokenIssuer(iss),
		WithTokenGate(token.NewVerifier(set, iss.Public(), led)))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	wallet := token.NewWallet(set)
	client := NewClient(ts.URL, set, key.Pub,
		WithHTTPClient(ts.Client()),
		WithTokenWallet(wallet),
		WithoutCache())
	e := &env{set: set, sc: sc, key: key, sched: sched, clock: clock, server: srv, ts: ts, client: client}
	return &gatedEnv{env: e, issuer: iss, ledger: led, wallet: wallet, dir: dir}
}

func TestTokenIssuanceKeyMustDiffer(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	// An issuer wrapping the TIMED-RELEASE key: blind issuance under s
	// would sign s·H1(T_future) on request. The server must refuse to
	// construct.
	iss, err := token.NewIssuer(set, key)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewServer accepted the timed-release key as issuance key")
		}
	}()
	NewServer(set, key, timefmt.MustSchedule(time.Minute), WithTokenIssuer(iss))
}

func TestTokenFetchAndGatedStream(t *testing.T) {
	g := newGatedEnv(t, "")
	ctx := context.Background()
	if _, err := g.server.PublishUpTo(g.clock.Now()); err != nil {
		t.Fatal(err)
	}
	label := g.sched.Label(g.clock.Now())

	// No tokens yet: the gated stream surfaces ErrTokenRequired.
	if _, err := g.client.StreamUpdates(ctx, label, func(core.KeyUpdate) error { return nil }); !errors.Is(err, ErrTokenRequired) {
		t.Fatalf("streaming with empty wallet: got %v, want ErrTokenRequired", err)
	}

	if err := g.client.FetchTokens(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if g.wallet.Len() != 4 {
		t.Fatalf("wallet holds %d tokens, want 4", g.wallet.Len())
	}

	// One token admits one stream connection, which replays the label.
	got := 0
	if _, err := g.client.StreamUpdates(ctx, label, func(u core.KeyUpdate) error {
		got++
		return errStopStream
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 || g.wallet.Len() != 3 {
		t.Fatalf("stream delivered %d, wallet %d; want 1 delivered, 3 left", got, g.wallet.Len())
	}
}

func TestTokenGatedCatchUp(t *testing.T) {
	g := newGatedEnv(t, "")
	ctx := context.Background()
	if _, err := g.server.PublishUpTo(g.clock.Now()); err != nil {
		t.Fatal(err)
	}
	g.clock.Advance(6 * time.Minute)
	if _, err := g.server.PublishUpTo(g.clock.Now()); err != nil {
		t.Fatal(err)
	}
	labels, err := g.client.Labels(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Without tokens the range path 401s and CatchUp degrades to the
	// deliberately ungated per-label endpoint — slower, still correct.
	got, err := g.client.CatchUp(ctx, labels)
	if err != nil {
		t.Fatalf("ungated-fallback catch-up: %v", err)
	}
	if len(got) != len(labels) {
		t.Fatalf("fallback delivered %d/%d", len(got), len(labels))
	}

	// With tokens the range fast path is admitted and spends one.
	if err := g.client.FetchTokens(ctx, 2); err != nil {
		t.Fatal(err)
	}
	before := g.wallet.Len()
	got, err = g.client.CatchUp(ctx, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(labels) {
		t.Fatalf("gated catch-up delivered %d/%d", len(got), len(labels))
	}
	if g.wallet.Len() >= before {
		t.Fatal("gated catch-up spent no token — the range path cannot have been used")
	}
}

// redeemDirect sends a raw gated request carrying tok and returns the
// status code — the HTTP-level view of redemption.
func redeemDirect(t *testing.T, g *gatedEnv, tok token.Token) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, g.ts.URL+"/v1/catchup?from=a&to=b", nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := base64.StdEncoding.EncodeToString(token.EncodeToken(g.server.codec, tok))
	req.Header.Set(TokenHeader, enc)
	resp, err := g.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestTokenDoubleSpendOverHTTP(t *testing.T) {
	g := newGatedEnv(t, "")
	ctx := context.Background()
	if err := g.client.FetchTokens(ctx, 2); err != nil {
		t.Fatal(err)
	}
	tok, err := g.wallet.Pop()
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent redemption of ONE token: exactly one 200-family
	// admission, the rest 409 (run under -race by make ci).
	const racers = 8
	statuses := make([]int, racers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			statuses[i] = redeemDirect(t, g, tok)
		}(i)
	}
	close(start)
	wg.Wait()
	admitted, conflicted := 0, 0
	for _, s := range statuses {
		switch s {
		case http.StatusConflict:
			conflicted++
		case http.StatusUnauthorized, http.StatusForbidden, http.StatusServiceUnavailable:
			t.Fatalf("unexpected status %d", s)
		default:
			admitted++ // 200 or 400 on the catchup params — token WAS admitted
		}
	}
	if admitted != 1 || conflicted != racers-1 {
		t.Fatalf("admitted %d, conflict %d; want exactly one admission", admitted, conflicted)
	}

	// The client-side retry burns the spent token and succeeds with a
	// fresh one from the wallet.
	if _, _, err := g.client.getGated(ctx, "/v1/catchup?from=x&to=x&limit=1", 1<<20); err != nil {
		t.Fatalf("getGated with fresh token: %v", err)
	}
}

func TestTokenGateRejectsForgeries(t *testing.T) {
	g := newGatedEnv(t, "")
	// Missing header.
	req, _ := http.NewRequest(http.MethodGet, g.ts.URL+"/v1/catchup?from=a&to=b", nil)
	resp, err := g.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("missing token: %d, want 401", resp.StatusCode)
	}
	// Garbage encoding.
	req, _ = http.NewRequest(http.MethodGet, g.ts.URL+"/v1/catchup?from=a&to=b", nil)
	req.Header.Set(TokenHeader, "!!not-base64!!")
	resp, err = g.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage token: %d, want 400", resp.StatusCode)
	}
	// Valid shape, wrong issuer.
	other, err := token.GenerateIssuer(g.set, nil)
	if err != nil {
		t.Fatal(err)
	}
	pending, blinded, err := token.Blind(g.set, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := other.SignBlinded(blinded)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := token.Unblind(g.set, other.Public(), pending, signed)
	if err != nil {
		t.Fatal(err)
	}
	if status := redeemDirect(t, g, forged[0]); status != http.StatusForbidden {
		t.Fatalf("forged token: %d, want 403", status)
	}
}

// TestGatedServerSpendLedgerRecovery is the crash test: a gated server
// dies mid-redemption, its spend.log tail is torn, and a new server
// over the same directory must keep every durably spent token rejected
// while the token whose admission was never acknowledged — and every
// untouched token — still redeems.
func TestGatedServerSpendLedgerRecovery(t *testing.T) {
	dir := t.TempDir()
	g := newGatedEnv(t, dir)
	ctx := context.Background()
	if err := g.client.FetchTokens(ctx, 3); err != nil {
		t.Fatal(err)
	}
	spent, _ := g.wallet.Pop()
	tornTok, _ := g.wallet.Pop()
	unspent, _ := g.wallet.Pop()

	if status := redeemDirect(t, g, spent); status == http.StatusConflict || status == http.StatusForbidden {
		t.Fatalf("first redemption rejected: %d", status)
	}
	if status := redeemDirect(t, g, tornTok); status == http.StatusConflict || status == http.StatusForbidden {
		t.Fatalf("second redemption rejected: %d", status)
	}

	// Kill the server "mid-redemption": close everything, then tear
	// the spend.log so tornTok's append looks half-written — exactly
	// the on-disk state of a crash between the fsync starting and
	// completing.
	g.ts.Close()
	g.ledger.Close()
	logPath := filepath.Join(dir, token.SpendLogName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-5], 0o600); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory.
	led2, stats, err := token.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated || stats.Spent != 1 {
		t.Fatalf("recovery stats %+v; want 1 durable spend and a truncated tail", stats)
	}
	srv2 := NewServer(g.set, g.key, g.sched,
		WithClock(g.clock.Now),
		WithTokenIssuer(g.issuer),
		WithTokenGate(token.NewVerifier(g.set, g.issuer.Public(), led2)))
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	g.ts = ts2
	g.server = srv2

	// The durably spent token stays rejected across the crash.
	if status := redeemDirect(t, g, spent); status != http.StatusConflict {
		t.Fatalf("durably spent token after restart: %d, want 409", status)
	}
	// The torn-append token was never acknowledged: it redeems now.
	if status := redeemDirect(t, g, tornTok); status == http.StatusConflict || status == http.StatusForbidden {
		t.Fatalf("torn-append token after restart: %d, want admission", status)
	}
	// A completely untouched token still redeems.
	if status := redeemDirect(t, g, unspent); status == http.StatusConflict || status == http.StatusForbidden {
		t.Fatalf("unspent token after restart: %d, want admission", status)
	}
	// And every admission above is durable in the repaired log.
	if err := led2.Close(); err != nil {
		t.Fatal(err)
	}
	audit, err := token.AuditSpendLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if audit.Torn || audit.Records != 3 || audit.Duplicates != 0 {
		t.Fatalf("post-recovery audit %+v; want 3 clean records", audit)
	}
}

// pairCounter counts the pairing checks made through a Set: every
// prepared key it hands out counts its PairCheck calls. samePairings
// counts the unprepared ones apart, the G2 mirror check of a decoded
// key among them.
type pairCounter struct {
	backend.Backend
	checks, samePairings atomic.Int64
}

func (c *pairCounter) PrepareKey(g, sg, sg2 curve.Point) backend.PreparedKey {
	return countedKey{c.Backend.PrepareKey(g, sg, sg2), &c.checks}
}

func (c *pairCounter) SamePairing(a1, b1, a2, b2 curve.Point) bool {
	c.checks.Add(1)
	c.samePairings.Add(1)
	return c.Backend.SamePairing(a1, b1, a2, b2)
}

type countedKey struct {
	backend.PreparedKey
	checks *atomic.Int64
}

func (k countedKey) PairCheck(h, sig curve.Point) bool {
	k.checks.Add(1)
	return k.PreparedKey.PairCheck(h, sig)
}

// mintTokens issues n tokens from iss without a server.
func mintTokens(t *testing.T, set *params.Set, iss *token.Issuer, n int) []token.Token {
	t.Helper()
	pending, blinded, err := token.Blind(set, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := iss.SignBlinded(blinded)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := token.Unblind(set, iss.Public(), pending, signed)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// countedGate boots a server that issues under iss and gates on a
// verifier of gateKey, over a backend that counts pairing checks, and
// returns a function presenting a token on a catch-up page.
func countedGate(t *testing.T, iss *token.Issuer, gateKey core.ServerPublicKey) (*pairCounter, func(token.Token) int) {
	t.Helper()
	preset := params.MustPreset("Test160")
	pc := &pairCounter{Backend: preset.B}
	set := *preset
	set.B = pc
	key, err := core.NewScheme(&set).ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&set, key, timefmt.MustSchedule(time.Minute),
		WithClock(func() time.Time { return time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC) }),
		WithTokenIssuer(iss),
		WithTokenGate(token.NewVerifier(&set, gateKey, token.NewLedger())))
	if _, err := srv.PublishUpTo(time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return pc, func(tok token.Token) int {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/catchup?from=2026-07-05T12:00:00Z&to=2026-07-05T12:01:00Z", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TokenHeader, base64.StdEncoding.EncodeToString(token.EncodeToken(srv.codec, tok)))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
}

// TestTokenGateBoundToItsIssuer: a gate next to the issuer of its
// tokens redeems with the issuance key — 200, then 409 on the replay,
// 403 on a forgery — and makes no pairing check doing so.
func TestTokenGateBoundToItsIssuer(t *testing.T) {
	set := params.MustPreset("Test160")
	iss, err := token.GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := token.GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	pc, redeem := countedGate(t, iss, iss.Public())
	toks := mintTokens(t, set, iss, 2)
	forged := mintTokens(t, set, other, 1)[0]
	pc.checks.Store(0)
	for _, step := range []struct {
		name string
		tok  token.Token
		want int
	}{
		{"fresh token", toks[0], http.StatusOK},
		{"replay", toks[0], http.StatusConflict},
		{"forgery", forged, http.StatusForbidden},
		{"another fresh token", toks[1], http.StatusOK},
	} {
		if got := redeem(step.tok); got != step.want {
			t.Fatalf("%s: %d, want %d", step.name, got, step.want)
		}
	}
	if n := pc.checks.Load(); n != 0 {
		t.Fatalf("the gate bound to its issuer made %d pairing checks", n)
	}
}

// TestTokenGateForeignKeyKeepsPairing: a gate whose key is not its
// issuer's stays on the pairing path. It admits the foreign issuer's
// tokens, one pair-check each, and refuses its own issuer's.
func TestTokenGateForeignKeyKeepsPairing(t *testing.T) {
	set := params.MustPreset("Test160")
	iss, err := token.GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := token.GenerateIssuer(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	pc, redeem := countedGate(t, iss, foreign.Public())
	pc.checks.Store(0)
	if got := redeem(mintTokens(t, set, foreign, 1)[0]); got != http.StatusOK {
		t.Fatalf("foreign issuer's token: %d, want 200", got)
	}
	if got := redeem(mintTokens(t, set, iss, 1)[0]); got != http.StatusForbidden {
		t.Fatalf("own issuer's token on a foreign-key gate: %d, want 403", got)
	}
	if n := pc.checks.Load(); n != 2 {
		t.Fatalf("the foreign-key gate made %d pairing checks for 2 redemptions, want 2", n)
	}
}
