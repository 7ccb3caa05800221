package bls381

import (
	"bytes"
	"math/big"
	"testing"
)

// feFromFuzz reduces arbitrary bytes into a field element and its
// big.Int reference value.
func feFromFuzz(b []byte) (fe, *big.Int) {
	v := new(big.Int).Mod(new(big.Int).SetBytes(b), rP())
	var x fe
	x.fromBig(v)
	return x, v
}

// FuzzFeArith differentially checks the generated six-limb base-field
// kernel (fe_mul.go: mul, add, sub, double, neg) and what is built on it
// (sqr, inv, the byte codec) against math/big on arbitrary operands, mul
// also against the loop-form oracle feMulLoop; every result must be
// canonical (limb-wise < p) and survive the output aliasing an input.
func FuzzFeArith(f *testing.F) {
	f.Add([]byte{0}, []byte{1})
	f.Add([]byte{0xff}, []byte{2})
	f.Add(mustBig(pHex).Bytes(), new(big.Int).Sub(mustBig(pHex), big.NewInt(1)).Bytes())
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) > 96 || len(bb) > 96 {
			return
		}
		initCtx()
		p := rP()
		a, av := feFromFuzz(ab)
		b, bv := feFromFuzz(bb)
		check := func(op string, got *fe, want *big.Int) {
			t.Helper()
			if !feCanonical(got) {
				t.Fatalf("%s(%v, %v) = %x is not reduced below p", op, av, bv, rawBig(got))
			}
			if got.toBig().Cmp(want) != 0 {
				t.Fatalf("%s(%v, %v) = %v, want %v", op, av, bv, got.toBig(), want)
			}
		}
		var r fe
		r.mul(&a, &b)
		check("mul", &r, new(big.Int).Mod(new(big.Int).Mul(av, bv), p))
		feMulLoop(&r, &a, &b)
		check("mul (loop form)", &r, new(big.Int).Mod(new(big.Int).Mul(av, bv), p))
		r.sqr(&a)
		check("sqr", &r, new(big.Int).Mod(new(big.Int).Mul(av, av), p))
		r.add(&a, &b)
		check("add", &r, new(big.Int).Mod(new(big.Int).Add(av, bv), p))
		r.sub(&a, &b)
		check("sub", &r, new(big.Int).Mod(new(big.Int).Sub(av, bv), p))
		r.dbl(&a)
		check("double", &r, new(big.Int).Mod(new(big.Int).Lsh(av, 1), p))
		r.neg(&a)
		check("neg", &r, new(big.Int).Mod(new(big.Int).Neg(av), p))
		if av.Sign() != 0 {
			r.inv(&a)
			check("inv", &r, new(big.Int).ModInverse(av, p))
		}
		// z = x, z = y and z = x = y: in place on copies.
		r = a
		r.mul(&r, &b)
		check("mul z=x", &r, new(big.Int).Mod(new(big.Int).Mul(av, bv), p))
		r = b
		r.sub(&a, &r)
		check("sub z=y", &r, new(big.Int).Mod(new(big.Int).Sub(av, bv), p))
		r = a
		r.add(&r, &r)
		check("add z=x=y", &r, new(big.Int).Mod(new(big.Int).Lsh(av, 1), p))
		// Serialization round trip on a canonical element.
		enc := a.bytes(nil)
		back, ok := feFromBytes(enc)
		if !ok || !back.equal(&a) {
			t.Fatalf("bytes round trip failed for %v", av)
		}
	})
}

// fe12FromFuzz expands arbitrary bytes into a full Fp12 element
// (twelve base-field coefficients via the RFC 9380 expander, so short
// inputs still cover the whole tower).
func fe12FromFuzz(b []byte) fe12 {
	seed := expandMessageXMD(b, "bls381-fuzz-fe12", 12*feByteLen)
	load := func(i int) (x fe) {
		x.fromBig(new(big.Int).SetBytes(seed[i*feByteLen : (i+1)*feByteLen]))
		return x
	}
	var z fe12
	z.c0.b0 = fe2{c0: load(0), c1: load(1)}
	z.c0.b1 = fe2{c0: load(2), c1: load(3)}
	z.c0.b2 = fe2{c0: load(4), c1: load(5)}
	z.c1.b0 = fe2{c0: load(6), c1: load(7)}
	z.c1.b1 = fe2{c0: load(8), c1: load(9)}
	z.c1.b2 = fe2{c0: load(10), c1: load(11)}
	return z
}

// FuzzFp12Arith differentially checks tower multiplication against the
// big.Int reference model and enforces the ring identities the pairing
// relies on (sqr = mul, associativity, inverse, Frobenius order).
func FuzzFp12Arith(f *testing.F) {
	f.Add([]byte("a"), []byte("b"))
	f.Add([]byte{}, []byte{0xff, 0x00})
	f.Add([]byte("cyclotomic"), []byte("subgroup"))
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) > 256 || len(bb) > 256 {
			return
		}
		initCtx()
		a := fe12FromFuzz(ab)
		b := fe12FromFuzz(bb)

		var prod fe12
		prod.mul(&a, &b)
		if !r12equal(prod.toRef(), r12mul(a.toRef(), b.toRef())) {
			t.Fatal("mul disagrees with the big.Int reference tower")
		}

		var sq, aa fe12
		sq.sqr(&a)
		aa.mul(&a, &a)
		if !sq.equal(&aa) {
			t.Fatal("sqr(a) != a*a")
		}

		// (a*b)*a == a*(b*a): associativity + commutativity crossing the
		// Karatsuba split.
		var l, r fe12
		l.mul(&prod, &a)
		r.mul(&b, &a)
		r.mul(&a, &r)
		if !l.equal(&r) {
			t.Fatal("(a*b)*a != a*(b*a)")
		}

		if !a.isZero() {
			var inv, one fe12
			inv.inv(&a)
			one.mul(&a, &inv)
			if !one.isOne() {
				t.Fatal("a * a^-1 != 1")
			}
		}

		// Frobenius has order 12 on Fp12.
		frob := a
		for i := 0; i < 12; i++ {
			frob.frob(&frob)
		}
		if !frob.equal(&a) {
			t.Fatal("frob^12 != identity")
		}
	})
}

// FuzzG2Marshal hammers the compressed G2 decoder with arbitrary
// bytes: it must never panic, must reject non-canonical encodings, and
// every accepted point must be on the curve and re-encode to exactly
// the input bytes.
func FuzzG2Marshal(f *testing.F) {
	initCtx()
	f.Add(bytes.Repeat([]byte{0}, g2ByteLen))
	f.Add(append([]byte{0xc0}, bytes.Repeat([]byte{0}, g2ByteLen-1)...))
	f.Add(marshalG2(nil, &ctx.g2))
	h := hashToG2([]byte("fuzz-seed"), "bls381-fuzz-g2")
	f.Add(marshalG2(nil, &h))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := unmarshalG2(data)
		if err != nil {
			return
		}
		if !p.isInfinity() && !p.isOnCurve() {
			t.Fatal("decoder accepted a point off the curve")
		}
		enc := marshalG2(nil, &p)
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding differs: in %x out %x", data, enc)
		}
		back, err := unmarshalG2(enc)
		if err != nil || !back.equal(&p) {
			t.Fatal("re-decode round trip failed")
		}
	})
}
