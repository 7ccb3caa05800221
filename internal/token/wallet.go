package token

import (
	"bufio"
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"timedrelease/internal/params"
	"timedrelease/internal/wire"
)

// walletHeader leads the wallet file, followed by the parameter-set
// name (tokens are backend-specific points; a wallet minted under one
// preset must not be spent under another).
const walletHeader = "tre-wallet-v1"

// ErrWalletEmpty reports a Pop from an empty wallet.
var ErrWalletEmpty = errors.New("token: wallet is empty")

// Wallet holds unspent tokens, optionally mirrored to a file — one
// base64 wire-encoded token per line under a one-line header. Every
// mutation rewrites the file atomically (temp + rename) BEFORE the
// token leaves the wallet: a crash between Pop and the redemption
// request loses at most one token, it never resurrects a token the
// server may already have marked spent.
type Wallet struct {
	mu    sync.Mutex
	path  string // "" → memory only
	set   *params.Set
	codec *wire.Codec
	toks  []Token
}

// NewWallet returns an in-memory wallet for set.
func NewWallet(set *params.Set) *Wallet {
	return &Wallet{set: set, codec: wire.NewCodec(set)}
}

// OpenWallet loads (creating if absent) the wallet file at path.
func OpenWallet(path string, set *params.Set) (*Wallet, error) {
	w := NewWallet(set)
	w.path = path
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return w, nil
	}
	if err != nil {
		return nil, fmt.Errorf("token: opening wallet: %w", err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	if !sc.Scan() {
		return w, nil // empty file: empty wallet
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 2 || fields[0] != walletHeader {
		return nil, fmt.Errorf("token: %s is not a wallet file", path)
	}
	if fields[1] != set.Name {
		return nil, fmt.Errorf("token: wallet %s was minted under parameter set %q, not %q", path, fields[1], set.Name)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		raw, err := base64.StdEncoding.DecodeString(line)
		if err != nil {
			return nil, fmt.Errorf("token: wallet %s: bad line: %w", path, err)
		}
		t, err := DecodeToken(w.codec, raw)
		if err != nil {
			return nil, fmt.Errorf("token: wallet %s: %w", path, err)
		}
		w.toks = append(w.toks, t)
	}
	return w, nil
}

// Add appends tokens and persists.
func (w *Wallet) Add(ts ...Token) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.toks = append(w.toks, ts...)
	return w.saveLocked()
}

// Pop removes and returns one token, persisting the removal first.
// ErrWalletEmpty when none remain.
func (w *Wallet) Pop() (Token, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.toks) == 0 {
		return Token{}, ErrWalletEmpty
	}
	t := w.toks[len(w.toks)-1]
	w.toks = w.toks[:len(w.toks)-1]
	if err := w.saveLocked(); err != nil {
		// Undo: the token was not handed out.
		w.toks = append(w.toks, t)
		return Token{}, err
	}
	return t, nil
}

// Len returns the number of unspent tokens held.
func (w *Wallet) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.toks)
}

// Path returns the backing file ("" for an in-memory wallet).
func (w *Wallet) Path() string { return w.path }

// saveLocked atomically rewrites the wallet file. Caller holds w.mu.
func (w *Wallet) saveLocked() error {
	if w.path == "" {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", walletHeader, w.set.Name)
	for _, t := range w.toks {
		b.WriteString(base64.StdEncoding.EncodeToString(EncodeToken(w.codec, t)))
		b.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(filepath.Dir(w.path), ".wallet-*")
	if err != nil {
		return fmt.Errorf("token: saving wallet: %w", err)
	}
	if _, err := tmp.WriteString(b.String()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("token: saving wallet: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("token: saving wallet: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o600); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("token: saving wallet: %w", err)
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("token: saving wallet: %w", err)
	}
	return nil
}

// EncodeToken wire-encodes a redemption credential.
func EncodeToken(codec *wire.Codec, t Token) []byte {
	return codec.MarshalToken(t.Seed[:], t.Sig)
}

// DecodeToken parses a wire-encoded redemption credential.
func DecodeToken(codec *wire.Codec, data []byte) (Token, error) {
	seed, sig, err := codec.UnmarshalToken(data)
	if err != nil {
		return Token{}, err
	}
	var t Token
	copy(t.Seed[:], seed)
	t.Sig = sig
	return t, nil
}
