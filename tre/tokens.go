package tre

import (
	"io"

	"timedrelease/internal/params"
	"timedrelease/internal/timeserver"
	"timedrelease/internal/token"
)

// Anonymous metered access: Privacy Pass-style blind tokens over the
// pairing backend (docs/TOKENS.md). A gated server meters /v1/catchup
// and /v1/stream without ever learning which subscriber redeems which
// token — issuance sees only a blinded point, redemption only the
// unblinded credential, and no blinding factor connects the two.
type (
	// TokenIssuer blind-signs token batches with a DEDICATED issuance
	// key (never the timed-release key; NewTimeServer refuses that).
	TokenIssuer = token.Issuer
	// TokenVerifier admits redemptions: one prepared pairing plus a
	// double-spend ledger lookup. A time server that also issues under
	// the verifier's key redeems with the key instead (no pairing).
	TokenVerifier = token.Verifier
	// TokenLedger is the sharded, optionally durable double-spend set.
	TokenLedger = token.Ledger
	// TokenWallet holds a client's unspent tokens, optionally mirrored
	// to a file.
	TokenWallet = token.Wallet
	// AccessToken is one unblinded credential (seed + blind signature).
	AccessToken = token.Token
	// SpendLogStats is the read-only spend.log audit report.
	SpendLogStats = token.SpendLogStats
	// TokenLedgerStats describes what opening a durable ledger
	// recovered.
	TokenLedgerStats = token.LedgerStats
)

// Typed failures of the token path.
var (
	// ErrTokenRequired: the server demands a token and the wallet is
	// absent or empty.
	ErrTokenRequired = timeserver.ErrTokenRequired
	// ErrTokenDoubleSpend: the presented token was already redeemed.
	ErrTokenDoubleSpend = token.ErrDoubleSpend
	// ErrBadToken: the token fails verification against the issuance
	// key.
	ErrBadToken = token.ErrBadToken
)

// NewTokenIssuer generates a fresh, dedicated issuance key pair.
func NewTokenIssuer(set *params.Set, rng io.Reader) (*TokenIssuer, error) {
	return token.GenerateIssuer(set, rng)
}

// TokenIssuerFromKey wraps an existing (persisted) issuance key.
func TokenIssuerFromKey(set *params.Set, key *ServerKeyPair) (*TokenIssuer, error) {
	return token.NewIssuer(set, key)
}

// NewTokenVerifier builds the redemption gate for an issuance public
// key over led (NewTokenLedger / OpenTokenLedger).
func NewTokenVerifier(set *params.Set, pub ServerPublicKey, led *TokenLedger) *TokenVerifier {
	return token.NewVerifier(set, pub, led)
}

// NewTokenLedger returns an in-memory double-spend set (state lost on
// restart — fine for relays fronting a durable origin).
func NewTokenLedger() *TokenLedger { return token.NewLedger() }

// OpenTokenLedger opens the durable ledger backed by dir/spend.log,
// truncating a torn tail exactly like archive recovery.
func OpenTokenLedger(dir string) (*TokenLedger, TokenLedgerStats, error) {
	return token.OpenLedger(dir)
}

// OpenTokenWallet loads (creating if absent) a wallet file.
func OpenTokenWallet(path string, set *params.Set) (*TokenWallet, error) {
	return token.OpenWallet(path, set)
}

// NewTokenWallet returns an in-memory wallet.
func NewTokenWallet(set *params.Set) *TokenWallet { return token.NewWallet(set) }

// AuditTokenSpendLog inspects dir/spend.log without modifying it.
func AuditTokenSpendLog(dir string) (SpendLogStats, error) {
	return token.AuditSpendLog(dir)
}

// WithTokenIssuer enables POST /v1/tokens/issue + GET /v1/tokens/key.
func WithTokenIssuer(iss *TokenIssuer) timeserver.Option {
	return timeserver.WithTokenIssuer(iss)
}

// WithTokenGate requires a valid unspent token on /v1/catchup and
// /v1/stream.
func WithTokenGate(v *TokenVerifier) timeserver.Option {
	return timeserver.WithTokenGate(v)
}

// WithTokenWallet attaches a wallet to a TimeClient: gated requests
// spend from it transparently.
func WithTokenWallet(w *TokenWallet) timeserver.ClientOption {
	return timeserver.WithTokenWallet(w)
}
