package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"runtime"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/curve"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

// sealFunc is one Encrypt variant with its ciphertext flattened to bytes
// (nil for a nil ciphertext), so the variants share one table.
type sealFunc func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error)

func g1Enc(sc *Scheme, u curve.Point) []byte { return sc.Set.B.AppendPoint(nil, backend.G1, u) }

// checkedVariants pairs every Encrypt variant with a reference that
// checks the key first and then encapsulates, each step on its own, in
// the order §5.1 lists them.
func checkedVariants() []struct {
	name      string
	seal, ref sealFunc
} {
	return []struct {
		name      string
		seal, ref sealFunc
	}{
		{"Encrypt",
			func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error) {
				ct, err := sc.Encrypt(rng, spub, upub, label, msg)
				if ct == nil {
					return nil, err
				}
				return bytes.Join([][]byte{g1Enc(sc, ct.U), ct.V}, nil), err
			},
			func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error) {
				if !sc.VerifyUserPublicKey(spub, upub) {
					return nil, ErrInvalidPublicKey
				}
				r, err := sc.Set.B.RandScalar(rng)
				if err != nil {
					return nil, err
				}
				u, k, err := sc.encapsulate(spub, upub, label, r)
				if err != nil {
					return nil, err
				}
				return bytes.Join([][]byte{g1Enc(sc, u), rohash.XOR(msg, sc.maskH2(k, len(msg)))}, nil), nil
			}},
		{"EncryptCCA",
			func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error) {
				ct, err := sc.EncryptCCA(rng, spub, upub, label, msg)
				if ct == nil {
					return nil, err
				}
				return bytes.Join([][]byte{g1Enc(sc, ct.U), ct.W, ct.V}, nil), err
			},
			func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error) {
				if !sc.VerifyUserPublicKey(spub, upub) {
					return nil, ErrInvalidPublicKey
				}
				sigma := make([]byte, seedLen)
				if _, err := io.ReadFull(rng, sigma); err != nil {
					return nil, err
				}
				r := rohash.ToScalarNonZero("TRE-H3", rohash.Concat(sigma, msg), sc.Set.Q)
				u, k, err := sc.encapsulate(spub, upub, label, r)
				if err != nil {
					return nil, err
				}
				w := rohash.XOR(sigma, sc.maskH2(k, seedLen))
				v := rohash.XOR(msg, rohash.Expand("TRE-H4", sigma, len(msg)))
				return bytes.Join([][]byte{g1Enc(sc, u), w, v}, nil), nil
			}},
		{"EncryptHybrid",
			func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error) {
				ct, err := sc.EncryptHybrid(rng, spub, upub, label, msg)
				if ct == nil {
					return nil, err
				}
				return bytes.Join([][]byte{g1Enc(sc, ct.U), ct.Box}, nil), err
			},
			func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error) {
				if !sc.VerifyUserPublicKey(spub, upub) {
					return nil, ErrInvalidPublicKey
				}
				r, err := sc.Set.B.RandScalar(rng)
				if err != nil {
					return nil, err
				}
				u, k, err := sc.encapsulate(spub, upub, label, r)
				if err != nil {
					return nil, err
				}
				box, err := demSeal(rng, sc.demKey(k), msg)
				if err != nil {
					return nil, err
				}
				return bytes.Join([][]byte{g1Enc(sc, u), box}, nil), nil
			}},
		{"EncryptREACT",
			func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error) {
				ct, err := sc.EncryptREACT(rng, spub, upub, label, msg)
				if ct == nil {
					return nil, err
				}
				return bytes.Join([][]byte{g1Enc(sc, ct.U), ct.W, ct.V, ct.Tag}, nil), err
			},
			func(sc *Scheme, rng io.Reader, spub ServerPublicKey, upub UserPublicKey, label string, msg []byte) ([]byte, error) {
				if !sc.VerifyUserPublicKey(spub, upub) {
					return nil, ErrInvalidPublicKey
				}
				secret := make([]byte, seedLen)
				if _, err := io.ReadFull(rng, secret); err != nil {
					return nil, err
				}
				r, err := sc.Set.B.RandScalar(rng)
				if err != nil {
					return nil, err
				}
				u, k, err := sc.encapsulate(spub, upub, label, r)
				if err != nil {
					return nil, err
				}
				w := rohash.XOR(secret, sc.maskH2(k, seedLen))
				v := rohash.XOR(msg, rohash.Expand("TRE-REACT-G", secret, len(msg)))
				tag := sc.reactTag(secret, msg, u, w, v)
				return bytes.Join([][]byte{g1Enc(sc, u), w, v, tag}, nil), nil
			}},
	}
}

// TestEncryptChecksKeyBesideEncapsulation pins the checked-encapsulation
// door under all four Encrypt variants, with its fork-join inline (one
// processor) and split across two: an ill-formed key gets
// ErrInvalidPublicKey and no ciphertext, even on a label the §5.1 item 6
// defence refuses; a valid key gets the bytes of check-then-encapsulate
// from the same seeded rng; and a seal costs exactly three pairings.
func TestEncryptChecksKeyBesideEncapsulation(t *testing.T) {
	msg := []byte("sealed beside its key check")
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", preset, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				set := params.MustPreset(preset)
				reg := obs.NewRegistry()
				sc := NewScheme(set).Instrument(reg)
				ref := NewScheme(set)
				server, err := sc.ServerKeyGen(nil)
				if err != nil {
					t.Fatal(err)
				}
				user, err := sc.UserKeyGen(server.Pub, nil)
				if err != nil {
					t.Fatal(err)
				}
				b := set.B
				notASG, infASG := user.Pub, user.Pub
				notASG.ASG = b.Add(backend.G1, notASG.ASG, set.G)
				infASG.ASG = b.Infinity(backend.G1)

				// An unsafe label on Type-1: a server whose generator is
				// the label's hash (scheme_test.go's TestUnsafeLabelDefense).
				var evil *ServerKeyPair
				var evilBad UserPublicKey
				if !set.Asymmetric() {
					s, err := b.RandScalar(nil)
					if err != nil {
						t.Fatal(err)
					}
					if evil, err = bls.NewPrivateKey(set, sc.hashLabel(testLabel), s); err != nil {
						t.Fatal(err)
					}
					evilUser, err := sc.UserKeyGen(evil.Pub, nil)
					if err != nil {
						t.Fatal(err)
					}
					evilBad = evilUser.Pub
					evilBad.ASG = b.Add(backend.G1, evilBad.ASG, evil.Pub.SG)
				}

				pairings := reg.Counter("core.pairings")
				for _, v := range checkedVariants() {
					for name, bad := range map[string]UserPublicKey{"ASG≠a·sG": notASG, "ASG=∞": infASG} {
						ct, err := v.seal(sc, nil, server.Pub, bad, testLabel, msg)
						if !errors.Is(err, ErrInvalidPublicKey) || ct != nil {
							t.Errorf("%s with %s: ct=%x err=%v, want no ciphertext and ErrInvalidPublicKey", v.name, name, ct, err)
						}
					}
					if evil != nil {
						ct, err := v.seal(sc, nil, evil.Pub, evilBad, testLabel, msg)
						if !errors.Is(err, ErrInvalidPublicKey) || ct != nil {
							t.Errorf("%s with an unsafe label and a bad key: ct=%x err=%v, want ErrInvalidPublicKey", v.name, ct, err)
						}
					}

					before := pairings.Load()
					got, err := v.seal(sc, mrand.New(mrand.NewSource(7)), server.Pub, user.Pub, testLabel, msg)
					if err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					if d := pairings.Load() - before; d != 3 {
						t.Errorf("%s: core.pairings rose by %d, want 3", v.name, d)
					}
					want, err := v.ref(ref, mrand.New(mrand.NewSource(7)), server.Pub, user.Pub, testLabel, msg)
					if err != nil {
						t.Fatalf("%s reference: %v", v.name, err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s: ciphertext differs from check-then-encapsulate on the same rng", v.name)
					}
				}
			})
		}
	}
}

// TestEncryptPanicReachesCaller: a point of another backend is a
// programming error, and the BLS12-381 backend panics on it. With the
// check and the encapsulation on worker goroutines, that panic must
// still reach the caller, where a recover (net/http's, for one) can
// catch it, rather than end the process.
func TestEncryptPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	set := params.MustPreset(params.PresetBLS12381)
	sc := NewScheme(set)
	server, err := sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	typeOne := newTestEnv(t).user.Pub
	defer func() {
		if recover() == nil {
			t.Fatal("Encrypt to a Type-1 key on BLS12-381 did not panic")
		}
	}()
	sc.Encrypt(nil, server.Pub, typeOne, testLabel, []byte("m"))
}

// BenchmarkSealSplit prices the checked encapsulation on BLS12-381
// against its two arms run alone. On two processors "checked" costs
// about "encapsulate": the key check runs on the other core.
func BenchmarkSealSplit(b *testing.B) {
	set := params.MustPreset(params.PresetBLS12381)
	sc := NewScheme(set)
	server, err := sc.ServerKeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	user, err := sc.UserKeyGen(server.Pub, nil)
	if err != nil {
		b.Fatal(err)
	}
	r, err := set.B.RandScalar(nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		run  func() error
	}{
		{"check", func() error {
			if !sc.VerifyUserPublicKey(server.Pub, user.Pub) {
				return ErrInvalidPublicKey
			}
			return nil
		}},
		{"encapsulate", func() error { _, _, err := sc.encapsulate(server.Pub, user.Pub, testLabel, r); return err }},
		{"checked", func() error { _, _, err := sc.encapsulateChecked(server.Pub, user.Pub, testLabel, r); return err }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := arm.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
