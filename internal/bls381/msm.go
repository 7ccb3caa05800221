package bls381

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"runtime"

	"timedrelease/internal/ff"
	"timedrelease/internal/parallel"
)

// jac is what the multi-scalar multiplication needs of g1Jac and g2Jac,
// whose zero value (Z = 0) is the identity.
type jac[T any] interface {
	*T
	neg(q *T)
	double(q *T)
	add(p, q *T)
}

// Straus's interleaving over width-4 NAFs, as in internal/curve: the
// odd multiples P, 3P, 5P, 7P per point, one doubling chain per block
// of msmBlock points, table storage reused from block to block. The
// endomorphism ladders (mulEndo) walk width-5 NAFs the same way.
const (
	msmWindow  = 4
	msmTable   = 1 << (msmWindow - 2)
	msmBlock   = 32
	endoWindow = 5
	endoTable  = 1 << (endoWindow - 2)
)

// msm returns Σ scalarsᵢ·Pᵢ in Jacobian form, at(i, p) writing the i-th
// point into p on the worker that sums its chunk. Scalars are
// non-negative and walked as given — never reduced mod r, because the
// hashing door feeds twist points whose cofactor is not cleared yet.
// One contiguous chunk per processor; partial sums fold in index order.
func msm[T any, P jac[T]](scalars []*big.Int, at func(i int, p *T)) (sum T) {
	n := len(scalars)
	parts := make([]T, min(n, runtime.GOMAXPROCS(0)))
	parallel.For(len(parts), func(w int) {
		msmChunk[T, P](&parts[w], scalars, at, w*n/len(parts), (w+1)*n/len(parts))
	})
	for i := range parts {
		P(&sum).add(&sum, &parts[i])
	}
	return sum
}

func msmChunk[T any, P jac[T]](sum *T, scalars []*big.Int, at func(i int, p *T), lo, hi int) {
	size := min(msmBlock, hi-lo)
	tbl := make([]T, size*msmTable)
	digits := make([][]int8, size)
	for ; lo < hi; lo += size {
		blk := min(size, hi-lo)
		for j := 0; j < blk; j++ {
			digits[j] = ff.AppendWNAF(digits[j][:0], scalars[lo+j], msmWindow)
			t := tbl[j*msmTable : (j+1)*msmTable]
			at(lo+j, &t[0])
			oddMultiples[T, P](t)
		}
		var acc, e T
		straus(digits[:blk], func() { P(&acc).double(&acc) }, func(j int, d int8) {
			t := &tbl[j*msmTable+int(max(d, -d))/2]
			if d < 0 {
				P(&e).neg(t)
				t = &e
			}
			P(&acc).add(&acc, t)
		})
		P(sum).add(sum, &acc)
	}
}

// oddMultiples fills t[i] = (2i+1)·t[0], 2·t[0] parked in the last slot
// until the end.
func oddMultiples[T any, P jac[T]](t []T) {
	n := len(t) - 1
	P(&t[n]).double(&t[0])
	for i := 1; i < n; i++ {
		P(&t[i]).add(&t[i-1], &t[n])
	}
	P(&t[n]).add(&t[n-1], &t[n])
}

// straus walks one doubling chain over several digit strings (least
// significant digit first): from the top position down, dbl() once,
// then add(j, d) for each nonzero digit d of string j there. It never
// holds a point: a method call through a type parameter moves its
// operands to the heap, a closure over the caller's stack does not.
func straus(digits [][]int8, dbl func(), add func(j int, d int8)) {
	top := 0
	for _, d := range digits {
		top = max(top, len(d))
	}
	for i := top - 1; i >= 0; i-- {
		dbl()
		for j, dj := range digits {
			if i < len(dj) && dj[i] != 0 {
				add(j, dj[i])
			}
		}
	}
}

// splitX returns k's four base-|x| digits, least significant first,
// each < |x| < 2⁶⁴: k < r = x⁴ − x² + 1 < x⁴. Long division on
// big-endian 64-bit limbs, whatever the width of a big.Word.
func splitX(k *big.Int) (d [4]uint64) {
	var buf [32]byte
	var l [4]uint64
	k.FillBytes(buf[:])
	for i := range l {
		l[i] = binary.BigEndian.Uint64(buf[8*i:])
	}
	for i := range d {
		for j := range l {
			l[j], d[i] = bits.Div64(d[i], l[j], xAbs)
		}
	}
	return d
}

// appendWNAF appends the width-w NAF of hi·2⁶⁴ + lo < 2¹²⁸ − 2^w, least
// significant digit first: ff.AppendWNAF's recoding on two limbs.
func appendWNAF(dst []int8, lo, hi uint64, w uint) []int8 {
	for lo|hi != 0 {
		d := int64(0)
		if lo&1 == 1 {
			if d = int64(lo & (1<<w - 1)); d >= 1<<(w-1) {
				d -= 1 << w
			}
			var b uint64
			lo, b = bits.Sub64(lo, uint64(d), 0)
			hi -= uint64(d>>63) + b
		}
		dst = append(dst, int8(d))
		lo, hi = lo>>1|hi<<63, hi>>1
	}
	return dst
}
