package bls381

import (
	"math/big"
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
// of msmBlock points, table storage reused from block to block.
const (
	msmWindow = 4
	msmTable  = 1 << (msmWindow - 2)
	msmBlock  = 32
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
		var acc, two, e T
		blk, top := min(size, hi-lo), 0
		for j := 0; j < blk; j++ {
			digits[j] = ff.AppendWNAF(digits[j][:0], scalars[lo+j], msmWindow)
			top = max(top, len(digits[j]))
			t := tbl[j*msmTable:]
			at(lo+j, &t[0])
			P(&two).double(&t[0])
			for i := 1; i < msmTable; i++ {
				P(&t[i]).add(&t[i-1], &two)
			}
		}
		for i := top - 1; i >= 0; i-- {
			P(&acc).double(&acc)
			for j := 0; j < blk; j++ {
				if i >= len(digits[j]) || digits[j][i] == 0 {
					continue
				}
				d := digits[j][i]
				t := &tbl[j*msmTable+int(max(d, -d))/2]
				if d < 0 {
					P(&e).neg(t)
					t = &e
				}
				P(&acc).add(&acc, t)
			}
		}
		P(sum).add(sum, &acc)
	}
}
