package main

import (
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sync/atomic"

	"timedrelease/internal/curve"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timeserver"
	"timedrelease/internal/token"
)

const (
	tokenEpochs  = 64 // archived labels the redemptions read
	tokenBatch   = 8  // tokens per issuance round trip, all redeemed
	tokenClients = 2
)

// tokens is the tokens-bls12381 workload, the one concurrent workload:
// two wallets against one gated server with a file-backed spend
// ledger. An operation tops a wallet up with 8 blind tokens in one
// issuance round trip, redeems each on a one-update /v1/catchup page
// over raw HTTP (so the client-side catch-up verification is out of
// the picture), then deliberately re-spends the last one, which must
// be refused with 409.
type tokens struct {
	*origin
	issuer  *token.Issuer
	ledger  *token.Ledger
	clients []*tokenClient
	creg    *obs.Registry
	base    map[string]int64
	rejects atomic.Int64 // 409s observed on the deliberate re-spends

	// The replays redeem against a verifier and a file-backed ledger of
	// their own: a token is spent once on either.
	replayLedger   *token.Ledger
	replayVerifier *token.Verifier
}

type tokenClient struct {
	c      *timeserver.Client
	wallet *token.Wallet
	rng    *rand.Rand
	http   *http.Client
	tt     *tracedTransport
}

func setupTokens(cfg config, t *tracer, rng *rand.Rand) (instance, error) {
	set := params.MustPreset("BLS12-381")
	k := &tokens{}
	var err error
	if k.issuer, err = token.GenerateIssuer(set, rng); err != nil {
		return nil, err
	}
	dir := fmt.Sprintf("%s/ledger-%d", cfg.workDir, setupSeq.Add(1))
	closeLedgers := func() {
		for _, led := range []*token.Ledger{k.ledger, k.replayLedger} {
			if led != nil {
				led.Close()
			}
		}
		os.RemoveAll(dir)
	}
	openLedger := func(sub string) (*token.Ledger, error) {
		if err := os.MkdirAll(dir+sub, 0o755); err != nil {
			return nil, err
		}
		led, _, err := token.OpenLedger(dir + sub)
		return led, err
	}
	if k.ledger, err = openLedger("/gate"); err == nil {
		k.replayLedger, err = openLedger("/replay")
	}
	if err == nil {
		k.replayVerifier = token.NewVerifier(set, k.issuer.Public(), k.replayLedger)
		k.origin, err = newOrigin(cfg, t, rng, originOpts{preset: "BLS12-381", epochs: tokenEpochs / cfg.scale, middleware: true,
			extra: []timeserver.Option{
				timeserver.WithTokenIssuer(k.issuer),
				timeserver.WithTokenGate(token.NewVerifier(set, k.issuer.Public(), k.ledger)),
			}})
	}
	if err != nil {
		closeLedgers()
		return nil, err
	}
	k.closers = append(k.closers, closeLedgers)
	if t.layers {
		k.creg = obs.NewRegistry()
	}
	for c := 0; c < tokenClients; c++ {
		tc := &tokenClient{wallet: token.NewWallet(set), rng: rand.New(rand.NewSource(rng.Int63()))}
		tc.http, tc.tt = newHTTPClient(t)
		opts := []timeserver.ClientOption{timeserver.WithHTTPClient(tc.http), timeserver.WithRetry(timeserver.NoRetry),
			timeserver.WithTokenWallet(tc.wallet)}
		if t.layers {
			opts = append(opts, timeserver.WithClientMetrics(k.creg))
		}
		tc.c = timeserver.NewClient(k.url, set, k.key.Pub, opts...)
		k.clients = append(k.clients, tc)
	}
	return k, nil
}

func (k *tokens) run(cfg config, t *tracer, res *result) (*meter, error) {
	k.base = counters(k.creg, k.reg)
	return closedLoop{clients: tokenClients, op: k.op}.run(cfg, t, res)
}

// redeem presents one token on a one-update catch-up page for label
// and returns the status and body.
func (k *tokens) redeem(tc *tokenClient, label, hdr string) (int, []byte, error) {
	q := url.Values{"from": {label}, "to": {label}, "limit": {"1"}}
	req, err := http.NewRequest(http.MethodGet, k.url+"/v1/catchup?"+q.Encode(), nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(timeserver.TokenHeader, hdr)
	resp, err := tc.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (k *tokens) op(c int, o *opCtx) (func(), error) {
	tc := k.clients[c]
	var err error
	var issueHandler int32 // the handler span of the issuance POST
	o.phase("op.issue", func(issue int32) {
		tc.tt.under(o, issue)
		err = tc.c.FetchTokens(context.Background(), tokenBatch)
		if tc.tt != nil {
			issueHandler = tc.tt.lastHandler
		}
	})
	if err != nil {
		return nil, fmt.Errorf("issue: %w", err)
	}
	if n := tc.wallet.Len(); n != tokenBatch {
		return nil, fmt.Errorf("wallet holds %d tokens after issuing %d", n, tokenBatch)
	}

	var tok token.Token
	var raw []byte
	var hdr string
	var handler int32 // the handler span of the last redemption
	o.phase("op.redeem", func(redeem int32) {
		tc.tt.under(o, redeem)
		for i := 0; i < tokenBatch && err == nil; i++ {
			if tok, err = tc.wallet.Pop(); err != nil {
				return
			}
			raw = token.EncodeToken(k.codec, tok)
			hdr = base64.StdEncoding.EncodeToString(raw)
			label := k.labels[tc.rng.Intn(len(k.labels))]
			status, body, rerr := k.redeem(tc, label, hdr)
			if rerr != nil || status != http.StatusOK {
				err = fmt.Errorf("redemption: status %d, %v", status, rerr)
				return
			}
			o.layer(redeem, "wire.decode_catchup", func() {
				page, derr := k.codec.UnmarshalCatchUpResponse(body)
				if derr != nil || len(page.Updates) != 1 || page.Updates[0].Label != label {
					err = fmt.Errorf("redemption page for %s: %d updates, %v", label, len(page.Updates), derr)
				}
			})
		}
		if tc.tt != nil {
			handler = tc.tt.lastHandler
		}
	})
	if err != nil {
		return nil, err
	}

	o.phase("op.respend", func(respend int32) {
		tc.tt.under(o, respend)
		status, _, rerr := k.redeem(tc, k.labels[0], hdr)
		if rerr != nil || status != http.StatusConflict {
			err = fmt.Errorf("re-spent token: status %d, want 409 (%v)", status, rerr)
			return
		}
		k.rejects.Add(1)
	})
	if err != nil || !o.traced() {
		return nil, err
	}

	return func() {
		// Issuance, as FetchTokens and the issue handler run it, on a
		// batch of the same size.
		var pending []token.Pending
		var blinded, signed []curve.Point
		o.replay(o.id, "token.blind", func() { pending, blinded, _ = token.Blind(k.set, tc.rng, tokenBatch) })
		o.replay(issueHandler, "token.sign_blinded", func() { signed, _ = k.issuer.SignBlinded(blinded) })
		o.replay(o.id, "token.unblind", func() { token.Unblind(k.set, k.issuer.Public(), pending, signed) })
		// One redemption, as the gate runs it on the last token.
		o.replay(handler, "wire.decode_token", func() { token.DecodeToken(k.codec, raw) })
		o.replay(handler, "token.redeem", func() { k.replayVerifier.Redeem(tok) })
		var id [32]byte
		tc.rng.Read(id[:])
		o.replay(handler, "token.ledger_spend", func() { k.replayLedger.Spend(id) })
		probeBackend(o, k.set, token.Domain, tok.Seed[:], k.issuer.Public().SG, tok.Sig, k.issuer.Key().S)
	}, nil
}

func (k *tokens) report(cfg config, st traceStats, _ *meter, res *result) {
	if !cfg.trace {
		return
	}
	after := counters(k.creg, k.reg)
	reportSchemeCounters(res, k.base, after, st.allOps, false)
	res.set("token.double_spend_rejects_per_op", float64(k.rejects.Load())/float64(st.allOps), "count", st.allOps)
	if got := after["timeserver.token_double_spend"] - k.base["timeserver.token_double_spend"]; got != k.rejects.Load() {
		res.invalid("server counted %d double spends, the clients provoked %d", got, k.rejects.Load())
	}
	probeWire(res, k.origin)
}

func (k *tokens) close() {
	for _, tc := range k.clients {
		tc.http.CloseIdleConnections()
	}
	k.origin.close()
}
