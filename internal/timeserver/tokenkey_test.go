package timeserver

import (
	"context"
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/token"
	"timedrelease/internal/wire"
)

// keySwapEnv is two BLS12-381 servers, each issuing and gating under
// its own issuance key, behind one URL that serves whichever is
// current — or, when badKey is set, those bytes on /v1/tokens/key. The
// client decodes over a backend that counts its pairing checks.
type keySwapEnv struct {
	issuers [2]*token.Issuer
	servers [2]http.Handler
	cur     atomic.Int32
	badKey  atomic.Pointer[[]byte]
	ts      *httptest.Server
	pc      *pairCounter
	client  *Client
	wallet  *token.Wallet
	label   string
}

func newKeySwapEnv(t *testing.T) *keySwapEnv {
	t.Helper()
	set := params.MustPreset(params.PresetBLS12381)
	key, err := core.NewScheme(set).ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	sched := timefmt.MustSchedule(time.Minute)
	e := &keySwapEnv{label: sched.Label(now)}
	for i := range e.servers {
		if e.issuers[i], err = token.GenerateIssuer(set, nil); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(set, key, sched, WithClock(func() time.Time { return now }),
			WithTokenIssuer(e.issuers[i]),
			WithTokenGate(token.NewVerifier(set, e.issuers[i].Public(), token.NewLedger())))
		if _, err := srv.PublishUpTo(now); err != nil {
			t.Fatal(err)
		}
		e.servers[i] = srv.Handler()
	}
	e.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k := e.badKey.Load(); k != nil && r.URL.Path == "/v1/tokens/key" {
			w.Write(*k)
			return
		}
		e.servers[e.cur.Load()].ServeHTTP(w, r)
	}))
	t.Cleanup(e.ts.Close)
	e.pc = &pairCounter{Backend: set.B}
	counted := *set
	counted.B = e.pc
	e.wallet = token.NewWallet(set)
	e.client = NewClient(e.ts.URL, &counted, key.Pub, WithHTTPClient(e.ts.Client()), WithTokenWallet(e.wallet))
	return e
}

// fetch tops the wallet up with n tokens and returns the client's
// unprepared pairing checks (the issuance key's G2 mirror) and prepared
// ones (the unblinding batch check) that the call made.
func (e *keySwapEnv) fetch(t *testing.T, n int) (mirrors, prepared int64) {
	t.Helper()
	m0, c0 := e.pc.samePairings.Load(), e.pc.checks.Load()
	if err := e.client.FetchTokens(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	mirrors = e.pc.samePairings.Load() - m0
	return mirrors, e.pc.checks.Load() - c0 - mirrors
}

// redeemAll presents every wallet token on a catch-up page of the
// current server and fails unless each is admitted.
func (e *keySwapEnv) redeemAll(t *testing.T) {
	t.Helper()
	codec := wire.NewCodec(params.MustPreset(params.PresetBLS12381))
	for e.wallet.Len() > 0 {
		tok, err := e.wallet.Pop()
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/catchup?from="+e.label+"&to="+e.label, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TokenHeader, base64.StdEncoding.EncodeToString(token.EncodeToken(codec, tok)))
		resp, err := e.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("token redeemed with status %d, want 200", resp.StatusCode)
		}
	}
}

// TestTokenKeyValidatedOncePerKey: the client validates an issuance key
// the first time it sees its bytes — one mirror pair-check — and not on
// later issuances, concurrent ones included; each issuance still makes
// its one batch check. A server that swaps to a new key mid-session
// has it validated again, and the tokens issued under it are admitted.
func TestTokenKeyValidatedOncePerKey(t *testing.T) {
	e := newKeySwapEnv(t)
	if m, p := e.fetch(t, 2); m != 1 || p != 1 {
		t.Fatalf("first issuance: %d mirror and %d batch checks, want 1 and 1", m, p)
	}
	if m, p := e.fetch(t, 2); m != 0 || p != 1 {
		t.Fatalf("same key again: %d mirror and %d batch checks, want 0 and 1", m, p)
	}
	m0 := e.pc.samePairings.Load()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < cap(errs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- e.client.FetchTokens(context.Background(), 1)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if m := e.pc.samePairings.Load() - m0; m != 0 {
		t.Fatalf("concurrent issuances under a validated key ran %d mirror checks, want 0", m)
	}
	e.redeemAll(t)

	e.cur.Store(1)
	if m, p := e.fetch(t, 3); m != 1 || p != 1 {
		t.Fatalf("after the key swap: %d mirror and %d batch checks, want 1 and 1", m, p)
	}
	e.redeemAll(t)
}

// TestTokenKeyBadMirrorRejectedEveryCall: key bytes whose G2 mirror
// does not match sG fail every issuance they are served on — before a
// good key was seen and after — and never displace the validated key.
func TestTokenKeyBadMirrorRejectedEveryCall(t *testing.T) {
	e := newKeySwapEnv(t)
	good, other := e.issuers[0].Public(), e.issuers[1].Public()
	codec := wire.NewCodec(params.MustPreset(params.PresetBLS12381))
	bad := codec.MarshalServerPublicKey(bls.PublicKey{G: good.G, SG: good.SG, SG2: other.SG2})
	badFetch := func(when string) {
		t.Helper()
		m0 := e.pc.samePairings.Load()
		err := e.client.FetchTokens(context.Background(), 1)
		if err == nil || !strings.Contains(err.Error(), "mirror") {
			t.Fatalf("%s: mismatched mirror served, got %v", when, err)
		}
		if m := e.pc.samePairings.Load() - m0; m != 1 {
			t.Fatalf("%s: %d mirror checks on bad key bytes, want 1", when, m)
		}
	}
	e.badKey.Store(&bad)
	badFetch("first call")
	badFetch("second call")
	e.badKey.Store(nil)
	if m, _ := e.fetch(t, 1); m != 1 {
		t.Fatalf("good key after bad bytes: %d mirror checks, want 1", m)
	}
	e.badKey.Store(&bad)
	badFetch("after a good key")
	badFetch("again")
	e.badKey.Store(nil)
	if m, _ := e.fetch(t, 1); m != 0 {
		t.Fatalf("the validated key again: %d mirror checks, want 0", m)
	}
	e.redeemAll(t)
}
