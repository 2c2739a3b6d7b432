package blas

import (
	"testing"
	"testing/quick"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// Property-based cross-validation: every production kernel must agree with
// the naive reference on randomized shapes, scalars and contents. These run
// alongside the hand-picked cases in the other files and are the safety net
// for any future kernel change.

func TestPropertyGemmKernelsAgree(t *testing.T) {
	r := sim.NewRNG(91)
	f := func(mRaw, nRaw, kRaw uint8, aScaled, bScaled int8) bool {
		m := int(mRaw)%48 + 1
		n := int(nRaw)%48 + 1
		k := int(kRaw)%48 + 1
		alpha := float64(aScaled) / 16
		beta := float64(bScaled) / 16
		a := randDense(r, m, k)
		b := randDense(r, k, n)
		c0 := randDense(r, m, n)

		want := c0.Clone()
		DgemmNaive(NoTrans, NoTrans, alpha, a, b, beta, want)

		blocked := c0.Clone()
		Dgemm(NoTrans, NoTrans, alpha, a, b, beta, blocked)
		if blocked.MaxDiff(want) > 1e-11 {
			return false
		}
		parallel := c0.Clone()
		DgemmParallel(NoTrans, NoTrans, alpha, a, b, beta, parallel, 3)
		return parallel.MaxDiff(want) <= 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGemmTransposeEquivalence(t *testing.T) {
	// (A*B)^T must match B^T*A^T computed by the same kernel on explicit
	// transposes.
	r := sim.NewRNG(92)
	f := func(mRaw, nRaw, kRaw uint8) bool {
		m := int(mRaw)%24 + 1
		n := int(nRaw)%24 + 1
		k := int(kRaw)%24 + 1
		a := randDense(r, m, k)
		b := randDense(r, k, n)
		ab := matrix.NewDense(m, n)
		Dgemm(NoTrans, NoTrans, 1, a, b, 0, ab)
		btat := matrix.NewDense(n, m)
		Dgemm(NoTrans, NoTrans, 1, b.Transpose(), a.Transpose(), 0, btat)
		return ab.Transpose().MaxDiff(btat) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTrsmInvertsTrmm(t *testing.T) {
	// Solving against a triangular system then multiplying back must return
	// the original right-hand side, for random triangles and sides.
	r := sim.NewRNG(93)
	f := func(nRaw, mRaw uint8, upper, unit, right bool) bool {
		order := int(nRaw)%16 + 2
		other := int(mRaw)%16 + 2
		uplo := Lower
		if upper {
			uplo = Upper
		}
		diag := NonUnit
		if unit {
			diag = Unit
		}
		side := Left
		bm, bn := order, other
		if right {
			side = Right
			bm, bn = other, order
		}
		stored, eff := triangular(r, order, uplo, diag)
		b0 := randDense(r, bm, bn)
		x := b0.Clone()
		Dtrsm(side, uplo, NoTrans, diag, 1, stored, x)
		// Multiply back with the effective triangle.
		prod := matrix.NewDense(bm, bn)
		if side == Left {
			Dgemm(NoTrans, NoTrans, 1, eff, x, 0, prod)
		} else {
			Dgemm(NoTrans, NoTrans, 1, x, eff, 0, prod)
		}
		return prod.MaxDiff(b0) <= 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLaswpInvolution(t *testing.T) {
	r := sim.NewRNG(94)
	f := func(nRaw uint8, seed uint16) bool {
		n := int(nRaw)%20 + 2
		a := randDense(r, n, 3)
		orig := a.Clone()
		piv := sim.NewRNG(uint64(seed))
		ipiv := make([]int, n)
		for i := range ipiv {
			ipiv[i] = i + piv.Intn(n-i)
		}
		Dlaswp(a, ipiv, 0, n)
		DlaswpInverse(a, ipiv, 0, n)
		return a.Equal(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGerMatchesGemm(t *testing.T) {
	// A rank-1 update is a degenerate DGEMM (k = 1).
	r := sim.NewRNG(95)
	f := func(mRaw, nRaw uint8, aScaled int8) bool {
		m := int(mRaw)%32 + 1
		n := int(nRaw)%32 + 1
		alpha := float64(aScaled) / 8
		x := randSlice(r, m)
		y := randSlice(r, n)
		a1 := randDense(r, m, n)
		a2 := a1.Clone()
		Dger(alpha, x, y, a1)
		xm := matrix.FromColMajor(m, 1, m, x)
		ymT := matrix.NewDense(1, n)
		for j := 0; j < n; j++ {
			ymT.Set(0, j, y[j])
		}
		Dgemm(NoTrans, NoTrans, alpha, xm, ymT, 1, a2)
		return a1.MaxDiff(a2) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
