package blas

import (
	"fmt"
	"sync"

	"tianhe/internal/matrix"
)

// Block sizes for the cache-blocked DGEMM. KC limits the panel of A kept hot
// in cache during the inner loops; NC limits the slab of C columns a worker
// owns. They were tuned on a commodity x86-64 core for the pure-Go kernels.
const (
	gemmKC = 256
	gemmNC = 128
)

func gemmDims(tA, tB Transpose, a, b, c *matrix.Dense) (m, n, k int) {
	m, k = a.Rows, a.Cols
	if tA == Trans {
		m, k = k, m
	}
	kb, n := b.Rows, b.Cols
	if tB == Trans {
		kb, n = n, kb
	}
	if kb != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: Dgemm dimension mismatch: op(A)=%dx%d op(B)=%dx%d C=%dx%d",
			m, k, kb, n, c.Rows, c.Cols))
	}
	return m, n, k
}

// DgemmNaive computes C = alpha*op(A)*op(B) + beta*C with unoptimized triple
// loops. It is the oracle the tests compare every other path against.
func DgemmNaive(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, n, k := gemmDims(tA, tB, a, b, c)
	at := func(i, l int) float64 {
		if tA == Trans {
			return a.At(l, i)
		}
		return a.At(i, l)
	}
	bt := func(l, j int) float64 {
		if tB == Trans {
			return b.At(j, l)
		}
		return b.At(l, j)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var s float64
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

// Dgemm computes C = alpha*A*B + beta*C with a column-axpy kernel blocked
// over K. It keeps the BLAS signature, but only the NoTrans/NoTrans case —
// the one on HPL's critical path — is implemented: a transposed operand
// panics, the same way a shape mismatch does.
func Dgemm(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	checkNoTrans(tA, tB, a, b, c)
	dgemmNN(alpha, a, b, beta, c)
}

// checkNoTrans panics unless both operands are untransposed and the shapes
// agree.
func checkNoTrans(tA, tB Transpose, a, b, c *matrix.Dense) {
	if tA == Trans || tB == Trans {
		panic("blas: Dgemm supports only NoTrans operands")
	}
	gemmDims(tA, tB, a, b, c)
}

// dgemmNN is the blocked NoTrans/NoTrans kernel.
func dgemmNN(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, n, k := c.Rows, c.Cols, a.Cols
	if beta != 1 {
		scaleMatrix(beta, c)
	}
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	for l0 := 0; l0 < k; l0 += gemmKC {
		lEnd := min(l0+gemmKC, k)
		for j := 0; j < n; j++ {
			cj := c.Col(j)
			bj := b.Col(j)
			for l := l0; l < lEnd; l++ {
				if blj := bj[l]; blj != 0 {
					Daxpy(alpha*blj, a.Col(l), cj)
				}
			}
		}
	}
}

func scaleMatrix(beta float64, c *matrix.Dense) {
	for j := 0; j < c.Cols; j++ {
		col := c.Col(j)
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else {
			Dscal(beta, col)
		}
	}
}

// DgemmParallel computes C = alpha*A*B + beta*C, fanning slabs of C columns
// out to workers goroutines. Workers own disjoint column ranges of C, so no
// synchronization beyond the final join is needed, and every column sees
// the serial accumulation order: the result is bit-identical for any worker
// count. Like Dgemm, it panics on a transposed operand.
func DgemmParallel(tA, tB Transpose, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, workers int) {
	checkNoTrans(tA, tB, a, b, c)
	if workers <= 1 || c.Cols < 2*gemmNC {
		dgemmNN(alpha, a, b, beta, c)
		return
	}
	type slab struct{ j0, j1 int }
	jobs := make(chan slab, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				dgemmNN(alpha,
					a,
					b.View(0, s.j0, b.Rows, s.j1-s.j0),
					beta,
					c.View(0, s.j0, c.Rows, s.j1-s.j0))
			}
		}()
	}
	for j := 0; j < c.Cols; j += gemmNC {
		jobs <- slab{j, min(j+gemmNC, c.Cols)}
	}
	close(jobs)
	wg.Wait()
}

// GemmFlops returns the floating-point operation count of an m×n×k DGEMM,
// the 2mnk convention the paper's GFLOPS numbers use.
func GemmFlops(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}
