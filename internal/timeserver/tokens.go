package timeserver

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"timedrelease/internal/backend"
	"timedrelease/internal/obs"
	"timedrelease/internal/token"
)

// Anonymous metered access (docs/TOKENS.md). The serving tier can
// require a Privacy Pass-style blind token on the two amplified read
// surfaces — /v1/catchup (bulk ranges) and /v1/stream (a held-open
// connection) — while staying exactly as passive and user-blind as
// before: issuance signs a uniformly random blinded point (no identity
// attached, none exists), redemption is one signature check plus a
// double-spend ledger lookup, and the single-label endpoints stay
// open, matching the paper's "anyone may read the current time"
// baseline. A gate beside an issuer of the same key checks
// S = x·H1(seed) (token.Verifier.KeyedBy); one that holds only the
// public key checks the pairing.
//
// The issuance key is structurally separate from the timed-release
// key: blind issuance signs attacker-chosen group elements, so signing
// with the release key would hand out s·H1(T_future) — future
// decryption keys — on request. NewServer refuses that configuration
// outright.

// TokenHeader carries the base64 wire-encoded redemption credential.
const TokenHeader = "X-TRE-Token"

// maxIssueBody bounds an issuance request body: a full MaxBatch of
// blinded points fits comfortably under 1 MiB on every backend.
const maxIssueBody = 1 << 20

// ErrTokenRequired is returned when the server demands an access token
// and the client has no wallet (or an empty one). Stock up with
// Client.FetchTokens or `trectl tokens fetch`.
var ErrTokenRequired = errors.New("timeserver: server requires an access token (fetch with Client.FetchTokens or 'trectl tokens fetch')")

// maxTokenTries bounds how many wallet tokens one request will burn
// before giving up: a shared wallet can race another process to a
// token (409), in which case the client retries with a fresh one.
const maxTokenTries = 3

// WithTokenIssuer enables POST /v1/tokens/issue and GET /v1/tokens/key:
// the server blind-signs token requests with iss's DEDICATED issuance
// key. Combine with WithTokenGate to also demand tokens back;
// issuance without gating is useful for an origin that mints tokens
// which only its relays enforce.
func WithTokenIssuer(iss *token.Issuer) Option {
	return func(s *Server) { s.issuer = iss }
}

// WithTokenGate requires a valid, unspent token on /v1/catchup and
// /v1/stream. Single-label reads (/v1/update, /v1/latest, /v1/wait)
// stay open — the gate meters the amplified surfaces, not the paper's
// baseline read (docs/TOKENS.md discusses the boundary).
func WithTokenGate(v *token.Verifier) Option {
	return func(s *Server) { s.gate = v }
}

// checkTokenKeySeparation panics when the issuance key equals the
// timed-release key: that configuration is not a misfeature but a
// break — a blind signature under s on H1(TimeDomain, T_future) IS the
// future update. Compared on public keys, which is what both sides
// derive from their scalars.
func (s *Server) checkTokenKeySeparation() {
	if s.issuer == nil {
		return
	}
	set := s.sc.Set
	if set.B.Equal(backend.G1, s.issuer.Public().SG, s.key.Pub.SG) {
		panic("timeserver: token issuance key must not be the timed-release key (see docs/TOKENS.md)")
	}
}

// tokenMetrics are the issuance/redemption counters and latencies
// (names timeserver.token*; docs/OBSERVABILITY.md). Nil without
// WithMetrics; obs types no-op on nil.
type tokenMetrics struct {
	issued      *obs.Counter   // tokens blind-signed
	issueNS     *obs.Histogram // per-request issuance latency (whole batch)
	redeemed    *obs.Counter   // tokens admitted on the gate
	redeemNS    *obs.Histogram // per-token verify+spend latency
	doubleSpend *obs.Counter   // redemptions rejected as already spent
	missing     *obs.Counter   // gated requests with no token header
	invalid     *obs.Counter   // malformed or forged tokens
}

func newTokenMetrics(r *obs.Registry) tokenMetrics {
	return tokenMetrics{
		issued:      r.Counter("timeserver.tokens_issued"),
		issueNS:     r.Histogram("timeserver.token_issue_ns"),
		redeemed:    r.Counter("timeserver.tokens_redeemed"),
		redeemNS:    r.Histogram("timeserver.token_redeem_ns"),
		doubleSpend: r.Counter("timeserver.token_double_spend"),
		missing:     r.Counter("timeserver.token_missing"),
		invalid:     r.Counter("timeserver.token_invalid"),
	}
}

// handleTokenKey serves the issuance public key (same encoding as the
// server key: clients unblind against it, relays verify against it).
func (v *publicView) handleTokenKey(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(v.codec.MarshalServerPublicKey(v.issuer.Public()))
}

// handleTokenIssue blind-signs a batch of blinded points. The server
// learns nothing linkable: the request is a list of uniformly random
// G2 elements, the response the same list scaled by x.
func (v *publicView) handleTokenIssue(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxIssueBody))
	if err != nil {
		http.Error(w, "reading request", http.StatusBadRequest)
		return
	}
	blinded, err := v.codec.UnmarshalTokenRequest(body)
	if err != nil {
		http.Error(w, "malformed token request", http.StatusBadRequest)
		return
	}
	start := time.Now()
	signed, err := v.issuer.SignBlinded(blinded)
	if err != nil {
		// Over-cap batches and non-subgroup points land here.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	v.tokenMet.issueNS.Since(start)
	v.tokenMet.issued.Add(int64(len(signed)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(v.codec.MarshalTokenResponse(signed))
}

// requireToken wraps a handler with token admission when the server is
// gated, redeeming the raw bytes (token.Verifier.RedeemEncoded). Status
// mapping (mirrored by the client's typed errors):
//
//	401 — no token presented        → ErrTokenRequired
//	400 — token undecodable (a spent seed answers 409 first)
//	403 — signature fails verification (pairing or keyed check)
//	409 — token already spent       → token.ErrDoubleSpend
//	503 — spend ledger cannot persist (fail closed)
func (v *publicView) requireToken(h http.HandlerFunc) http.HandlerFunc {
	if v.gate == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		enc := r.Header.Get(TokenHeader)
		if enc == "" {
			v.tokenMet.missing.Inc()
			http.Error(w, "access token required", http.StatusUnauthorized)
			return
		}
		raw, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			v.tokenMet.invalid.Inc()
			http.Error(w, "malformed token encoding", http.StatusBadRequest)
			return
		}
		start := time.Now()
		err = v.gate.RedeemEncoded(raw)
		v.tokenMet.redeemNS.Since(start)
		switch {
		case err == nil:
			v.tokenMet.redeemed.Inc()
			h(w, r)
		case errors.Is(err, token.ErrMalformed):
			v.tokenMet.invalid.Inc()
			http.Error(w, "malformed token", http.StatusBadRequest)
		case errors.Is(err, token.ErrDoubleSpend):
			v.tokenMet.doubleSpend.Inc()
			http.Error(w, "token already spent", http.StatusConflict)
		case errors.Is(err, token.ErrBadToken):
			v.tokenMet.invalid.Inc()
			http.Error(w, "token rejected", http.StatusForbidden)
		default:
			// Ledger persistence failure: fail closed, the admission
			// would not survive a restart.
			http.Error(w, "token ledger unavailable", http.StatusServiceUnavailable)
		}
	}
}

// --- client side --------------------------------------------------------

// WithTokenWallet attaches a wallet: every gated request (/v1/catchup
// pages, /v1/stream dials) spends one token from it, transparently.
// Tokens are popped from the wallet before use — at-most-once
// semantics, so a crash mid-request wastes at most one token and can
// never double-spend.
func WithTokenWallet(w *token.Wallet) ClientOption {
	return func(c *Client) { c.wallet = w }
}

// Wallet returns the attached wallet (nil without WithTokenWallet).
func (c *Client) Wallet() *token.Wallet { return c.wallet }

// FetchTokens tops up the wallet with n fresh tokens in one issuance
// round trip: blind, POST /v1/tokens/issue, unblind, verify against
// the server's issuance key, store. The server sees only blinded
// points; the tokens that land in the wallet are unlinkable to this
// call.
func (c *Client) FetchTokens(ctx context.Context, n int) error {
	if c.wallet == nil {
		return errors.New("timeserver: FetchTokens needs WithTokenWallet")
	}
	if n <= 0 || n > token.MaxBatch {
		return fmt.Errorf("timeserver: token batch must be in [1, %d]", token.MaxBatch)
	}
	key, err := c.fetchIssuanceKey(ctx)
	if err != nil {
		return err
	}
	pending, blinded, err := token.Blind(c.sc.Set, nil, n)
	if err != nil {
		return err
	}
	body, status, err := c.post(ctx, "/v1/tokens/issue", c.codec.MarshalTokenRequest(blinded))
	if err != nil {
		return err
	}
	if status == http.StatusNotFound {
		return errors.New("timeserver: server does not issue tokens")
	}
	if status != http.StatusOK {
		return fmt.Errorf("timeserver: token issuance returned %d", status)
	}
	signed, err := c.codec.UnmarshalTokenResponse(body)
	if err != nil {
		return fmt.Errorf("timeserver: token response: %w", err)
	}
	toks, err := key.Unblind(pending, signed)
	if err != nil {
		return err
	}
	if err := c.wallet.Add(toks...); err != nil {
		return err
	}
	c.met.tokensFetched.Add(int64(len(toks)))
	return nil
}

// issuanceKey is the last issuance key a client validated: its exact
// encoding and the token.Key prepared from it.
type issuanceKey struct {
	raw []byte
	key *token.Key
}

// fetchIssuanceKey retrieves /v1/tokens/key on every call and decodes
// it when its bytes differ from the last key this client validated.
// The key is fetched per call rather than pinned: a server swapping
// issuance keys only invalidates its own tokens (Unblind verifies
// against whatever key signed), it cannot forge anything. Unchanged
// bytes decode to the same key with the same verdict, so they reuse
// the validated key and its x·G2 table instead of running the G2
// mirror pair-check and building the table again; bytes that fail
// validation are never kept, and fail on every call.
func (c *Client) fetchIssuanceKey(ctx context.Context) (*token.Key, error) {
	body, status, err := c.get(ctx, "/v1/tokens/key")
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, errors.New("timeserver: server does not issue tokens")
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("timeserver: token key endpoint returned %d", status)
	}
	if last := c.issuanceKey.Load(); last != nil && bytes.Equal(last.raw, body) {
		return last.key, nil
	}
	pub, err := c.codec.UnmarshalServerPublicKey(body)
	if err != nil {
		return nil, fmt.Errorf("timeserver: token key: %w", err)
	}
	key := token.NewKey(c.sc.Set, pub)
	c.issuanceKey.Store(&issuanceKey{raw: body, key: key})
	return key, nil
}

// popTokenHeader pops one wallet token and renders the redemption
// header value. ErrWalletEmpty maps to ErrTokenRequired: the server
// demanded a token the client cannot produce.
func (c *Client) popTokenHeader() (string, error) {
	t, err := c.wallet.Pop()
	if errors.Is(err, token.ErrWalletEmpty) {
		return "", ErrTokenRequired
	}
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(token.EncodeToken(c.codec, t)), nil
}

// getGated is getLimited for token-gated endpoints: with a wallet
// attached it spends one token per attempt, retrying a bounded number
// of times on 409 (another wallet holder won the race to this token)
// and surfacing typed errors for 401/409.
func (c *Client) getGated(ctx context.Context, path string, bodyLimit int64) ([]byte, int, error) {
	if c.wallet == nil {
		body, status, err := c.getLimited(ctx, path, bodyLimit)
		if err == nil && status == http.StatusUnauthorized {
			return nil, status, ErrTokenRequired
		}
		return body, status, err
	}
	var lastErr error
	for try := 0; try < maxTokenTries; try++ {
		hdr, err := c.popTokenHeader()
		if err != nil {
			return nil, 0, err
		}
		body, status, err := c.getLimitedHeader(ctx, path, bodyLimit, http.Header{TokenHeader: []string{hdr}})
		if err != nil {
			return nil, status, err
		}
		switch status {
		case http.StatusConflict:
			c.met.tokenRejected.Inc()
			lastErr = token.ErrDoubleSpend
			continue
		case http.StatusUnauthorized:
			return nil, status, ErrTokenRequired
		}
		c.met.tokenRedeemed.Inc()
		return body, status, nil
	}
	return nil, http.StatusConflict, fmt.Errorf("timeserver: %s: %w after %d tokens", path, lastErr, maxTokenTries)
}
