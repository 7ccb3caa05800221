package bls381

import (
	"math/big"
	"sync"

	"timedrelease/internal/curve"
)

// Fixed-base multiplication in G2: k·P for a P known ahead, with no
// doubling when k arrives. k's four base-|x| digits (splitX) are each
// recoded into fbRows signed windows of fbWindow bits; row j of P's
// table holds m·2^(fbWindow·j)·P for m = 1 … fbEntries in affine form.
// Digit i's windows select ±row[j][m] into a sum Aᵢ, and since
// [|x|]P = −ψ(P) on G2, k·P = Σ (−ψ)ⁱ(Aᵢ): 4·fbRows mixed additions,
// three ψ and three additions, one toAffine, where a ladder doubles 64
// times besides. Each row is read by a masked scan of all its entries
// and the sign is applied without branching; the addition law is the
// variable-time one of g2Jac.
const (
	fbWindow  = 6
	fbEntries = 1 << (fbWindow - 1)        // |window| ≤ 32
	fbRows    = (64 + fbWindow) / fbWindow // 66 bits: a 64-bit digit and its last carry
)

// g2Table is one base's rows (≈ 66 kB), each entry the coordinates
// x.c0, x.c1, y.c0, y.c1 of an affine point.
type g2Table [fbRows][fbEntries][4]fe

// g2GenTable is the generator's table, built on first use: no binary
// pays for it at start-up.
var g2GenTable = sync.OnceValue(func() *g2Table { return newG2Table(&ctx.g2) })

// newG2Table fills p's rows a row at a time, in Jacobian form, and
// converts each with one inversion (Montgomery's trick); a row's
// scratch stays on the stack. p must be a non-identity point of G2, so
// that no entry, a multiple of p by less than r, is the identity.
func newG2Table(p *g2Affine) *g2Table {
	t := new(g2Table)
	var row [fbEntries]g2Jac
	var prefix [fbEntries]fe2
	var b g2Jac
	b.fromAffine(p)
	for j := range t {
		row[0] = b
		for m := 1; m < fbEntries; m++ {
			row[m].add(&row[m-1], &b)
		}
		b.double(&row[fbEntries-1])
		var acc fe2
		acc.setOne()
		for m := range row {
			prefix[m] = acc
			acc.mul(&acc, &row[m].z)
		}
		acc.inv(&acc)
		for m := fbEntries - 1; m >= 0; m-- {
			var zi, zi2, x, y fe2
			zi.mul(&acc, &prefix[m])
			acc.mul(&acc, &row[m].z)
			zi2.sqr(&zi)
			x.mul(&row[m].x, &zi2)
			zi2.mul(&zi2, &zi)
			y.mul(&row[m].y, &zi2)
			t[j][m] = [4]fe{x.c0, x.c1, y.c0, y.c1}
		}
	}
	return t
}

// mul returns k·P, k reduced mod r.
func (t *g2Table) mul(k *big.Int) curve.Point {
	var j g2Jac
	t.walk(&j, k)
	out := j.toAffine()
	return wrapG2(&out)
}

// walk sets z = k·P by walking P's table: digit i's windows sum into
// acc[i], and Horner's rule in −ψ folds the four.
func (t *g2Table) walk(z *g2Jac, k *big.Int) {
	d := splitX(reduceScalar(k))
	var carry [4]uint64
	var acc [4]g2Jac
	var e g2Affine
	for j := range t {
		for i := range d {
			w := d[i]>>(fbWindow*j)&(1<<fbWindow-1) + carry[i]
			carry[i] = (w + fbEntries - 1) >> fbWindow // w > fbEntries: take w − 2^fbWindow
			neg := -carry[i]
			e.selectEntry(&t[j], w^(w^(1<<fbWindow-w))&neg)
			e.negYIf(neg)
			acc[i].addAffine(&acc[i], &e)
		}
	}
	for i := 2; i >= 0; i-- {
		acc[3].psi(&acc[3])
		acc[3].neg(&acc[3])
		acc[3].add(&acc[3], &acc[i])
	}
	*z = acc[3]
}

// selectEntry sets p = row[m−1], or the identity for m = 0, reading
// every entry of the row whatever m is: a coordinate at a time, so
// that its limbs stay in registers across the scan.
func (p *g2Affine) selectEntry(row *[fbEntries][4]fe, m uint64) {
	var masks [fbEntries]uint64
	for i := range masks {
		d := uint64(i+1) ^ m
		masks[i] = (d|-d)>>63 - 1 // all ones where i+1 = m
	}
	for c, f := range [4]*fe{&p.x.c0, &p.x.c1, &p.y.c0, &p.y.c1} {
		var a0, a1, a2, a3, a4, a5 uint64
		for i, mask := range masks {
			e := &row[i][c]
			a0 |= e[0] & mask
			a1 |= e[1] & mask
			a2 |= e[2] & mask
			a3 |= e[3] & mask
			a4 |= e[4] & mask
			a5 |= e[5] & mask
		}
		*f = fe{a0, a1, a2, a3, a4, a5}
	}
	p.inf = m == 0
}

// negYIf negates p where mask is all ones and leaves it where mask is 0.
func (p *g2Affine) negYIf(mask uint64) {
	var n fe2
	n.neg(&p.y)
	for l := 0; l < feLimbs; l++ {
		p.y.c0[l] ^= (p.y.c0[l] ^ n.c0[l]) & mask
		p.y.c1[l] ^= (p.y.c1[l] ^ n.c1[l]) & mask
	}
}
