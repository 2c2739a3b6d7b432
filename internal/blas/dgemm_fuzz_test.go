package blas

import (
	"math"
	"testing"

	"tianhe/internal/sim"
)

// FuzzDgemmVsNaive cross-checks the blocked kernel on arbitrary shapes,
// scalings, and deterministic random contents: Dgemm must agree with the
// reference triple-loop kernel to accumulation-order rounding, and
// DgemmParallel at 1-4 workers must reproduce Dgemm bit for bit. Entries
// live in [-0.5, 0.5), so with k inner products the elementwise error
// budget scales with |alpha|*k plus the |beta|-scaled input.
func FuzzDgemmVsNaive(f *testing.F) {
	f.Add(1, 1, 1, 1.0, 0.0, uint64(1))
	f.Add(4, 4, 4, 1.0, 1.0, uint64(2))
	f.Add(37, 29, 41, 2.0, -0.5, uint64(3))
	f.Add(130, 3, 258, 1.5, 0.5, uint64(4)) // k straddles gemmKC
	f.Add(6, 300, 2, -1.0, 0.0, uint64(5))  // three gemmNC column slabs
	f.Fuzz(func(t *testing.T, m, n, k int, alpha, beta float64, seed uint64) {
		// Bound shapes so a fuzz iteration stays fast; fringe coverage
		// only needs dimensions around the gemmKC=256 K-block and enough
		// columns for several gemmNC=128 parallel slabs.
		m = 1 + abs(m)%140
		n = 1 + abs(n)%400
		k = 1 + abs(k)%280
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) ||
			math.IsNaN(beta) || math.IsInf(beta, 0) {
			t.Skip("non-finite scalars have no agreement contract")
		}
		// Clamp scalars: huge alpha/beta just test float overflow, not
		// kernel agreement.
		alpha = math.Mod(alpha, 16)
		beta = math.Mod(beta, 16)

		r := sim.NewRNG(seed)
		a := randDense(r, m, k)
		b := randDense(r, k, n)
		c0 := randDense(r, m, n)

		want := c0.Clone()
		DgemmNaive(NoTrans, NoTrans, alpha, a, b, beta, want)
		got := c0.Clone()
		Dgemm(NoTrans, NoTrans, alpha, a, b, beta, got)

		tol := 1e-13 * (math.Abs(alpha)*float64(k) + math.Abs(beta) + 1)
		if d := got.MaxDiff(want); d > tol {
			t.Fatalf("Dgemm vs naive disagree: %dx%dx%d alpha=%g beta=%g seed=%d: max diff %g > tol %g",
				m, n, k, alpha, beta, seed, d, tol)
		}
		for workers := 1; workers <= 4; workers++ {
			par := c0.Clone()
			DgemmParallel(NoTrans, NoTrans, alpha, a, b, beta, par, workers)
			if !par.Equal(got) {
				t.Fatalf("DgemmParallel(workers=%d) differs from Dgemm: %dx%dx%d seed=%d: max diff %g",
					workers, m, n, k, seed, par.MaxDiff(got))
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		// Avoid overflow on MinInt: any fixed bucket works for shape
		// derivation.
		if x == math.MinInt {
			return 1
		}
		return -x
	}
	return x
}
