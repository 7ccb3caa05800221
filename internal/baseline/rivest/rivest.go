// Package rivest implements the offline variant of the Rivest–Shamir–
// Wagner trusted-server scheme (paper §2.2, footnote 2): the server
// pre-publishes a public key for every epoch up to a fixed horizon and
// releases the matching private key when each epoch arrives.
//
// The paper's criticisms, which experiment E9 measures:
//
//   - the server must generate, store and publish keys for the whole
//     horizon IN ADVANCE (storage and publication grow linearly with
//     how far ahead senders may seal);
//   - a sender cannot choose a release time beyond the published
//     horizon without waiting for the server to extend the list —
//     unlike TRE, where any label in the infinite future works.
//
// Epoch keys are hashed-ElGamal pairs over the same G1 so the comparison
// against TRE is apples-to-apples.
package rivest

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// ErrBeyondHorizon reports an encryption attempt for an epoch the server
// has not pre-published.
var ErrBeyondHorizon = errors.New("rivest: release epoch is beyond the published horizon")

// ErrNotReleased reports a decryption attempt before the epoch's private
// key was released.
var ErrNotReleased = errors.New("rivest: epoch key not yet released")

// Server pre-generates per-epoch key pairs up to a horizon.
type Server struct {
	set *params.Set

	mu       sync.Mutex
	privs    []*big.Int    // all epoch private keys (must be stored!)
	pubs     []curve.Point // pre-published epoch public keys
	released int           // epochs whose private key is out
}

// NewServer creates a server with an empty key list.
func NewServer(set *params.Set) *Server { return &Server{set: set} }

// ExtendHorizon generates and "publishes" count additional epoch public
// keys. This is the up-front cost the paper objects to.
func (s *Server) ExtendHorizon(rng io.Reader, count int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < count; i++ {
		b, err := s.set.B.RandScalar(rng)
		if err != nil {
			return fmt.Errorf("rivest: generating epoch key: %w", err)
		}
		s.privs = append(s.privs, b)
		s.pubs = append(s.pubs, s.set.B.ScalarMult(backend.G1, b, s.set.G))
	}
	return nil
}

// Horizon returns the number of pre-published epochs.
func (s *Server) Horizon() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pubs)
}

// PublicKeys returns the published key list (what every sender must
// hold a copy of, or query).
func (s *Server) PublicKeys() []curve.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]curve.Point(nil), s.pubs...)
}

// Release hands out the private key of the given epoch, which must be
// the next unreleased one (epochs release in order as time passes).
func (s *Server) Release(epoch int) (*big.Int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch >= len(s.privs) {
		return nil, ErrBeyondHorizon
	}
	if epoch >= s.released {
		if epoch != s.released {
			return nil, fmt.Errorf("rivest: epochs release in order; next is %d", s.released)
		}
		s.released++
	}
	return new(big.Int).Set(s.privs[epoch]), nil
}

// StoredKeyBytes estimates the server's private-key storage: one scalar
// per epoch in the horizon — compare TRE's single scalar regardless of
// horizon (E9).
func (s *Server) StoredKeyBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.privs)) * int64((s.set.Q.BitLen()+7)/8)
}

// PublishedKeyBytes estimates the size of the public key list senders
// must obtain.
func (s *Server) PublishedKeyBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.pubs)) * int64(s.set.B.PointLen(backend.G1))
}

// Ciphertext is a hashed-ElGamal ciphertext to an epoch key.
type Ciphertext struct {
	Epoch int
	U     curve.Point
	V     []byte
}

// Encrypt seals msg to the given epoch using the published key list.
func Encrypt(rng io.Reader, set *params.Set, pubs []curve.Point, epoch int, msg []byte) (*Ciphertext, error) {
	if epoch < 0 || epoch >= len(pubs) {
		return nil, ErrBeyondHorizon
	}
	r, err := set.B.RandScalar(rng)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{
		Epoch: epoch,
		U:     set.B.ScalarMult(backend.G1, r, set.G),
		V:     rohash.XOR(msg, demMask(set, set.B.ScalarMult(backend.G1, r, pubs[epoch]), len(msg))),
	}, nil
}

// Decrypt opens a ciphertext with the released epoch private key.
func Decrypt(set *params.Set, epochPriv *big.Int, ct *Ciphertext) ([]byte, error) {
	if ct == nil || !set.B.IsOnCurve(backend.G1, ct.U) {
		return nil, errors.New("rivest: malformed ciphertext")
	}
	return rohash.XOR(ct.V, demMask(set, set.B.ScalarMult(backend.G1, epochPriv, ct.U), len(ct.V))), nil
}

// demMask is the hashed-ElGamal keystream over the shared point.
func demMask(set *params.Set, shared curve.Point, n int) []byte {
	return rohash.Expand("RIVEST-DEM", set.B.AppendPoint(nil, backend.G1, shared), n)
}
