package blas

import (
	"testing"

	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

func gemmCase(t *testing.T, m, n, k int, alpha, beta float64, seed uint64) {
	t.Helper()
	r := sim.NewRNG(seed)
	a := randDense(r, m, k)
	b := randDense(r, k, n)
	c0 := randDense(r, m, n)

	want := c0.Clone()
	DgemmNaive(NoTrans, NoTrans, alpha, a, b, beta, want)

	got := c0.Clone()
	Dgemm(NoTrans, NoTrans, alpha, a, b, beta, got)
	if d := got.MaxDiff(want); d > 1e-11 {
		t.Fatalf("Dgemm(%dx%dx%d,a=%v,b=%v) diff=%v", m, n, k, alpha, beta, d)
	}

	gotP := c0.Clone()
	DgemmParallel(NoTrans, NoTrans, alpha, a, b, beta, gotP, 4)
	if d := gotP.MaxDiff(want); d > 1e-11 {
		t.Fatalf("DgemmParallel diff=%v", d)
	}
}

// TestDgemmAllTransCombos: NoTrans/NoTrans is the one implemented case;
// every combination with a transposed operand panics in both Dgemm and
// DgemmParallel, the same way a shape mismatch does.
func TestDgemmAllTransCombos(t *testing.T) {
	gemmCase(t, 13, 9, 7, 1.5, 0.5, 100)
	combos := []struct{ tA, tB Transpose }{{Trans, NoTrans}, {NoTrans, Trans}, {Trans, Trans}}
	for _, c := range combos {
		sq := matrix.NewDense(8, 8)
		for name, call := range map[string]func(){
			"Dgemm":         func() { Dgemm(c.tA, c.tB, 1, sq, sq, 0, matrix.NewDense(8, 8)) },
			"DgemmParallel": func() { DgemmParallel(c.tA, c.tB, 1, sq, sq, 0, matrix.NewDense(8, 8), 4) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(%v,%v) must panic on a transposed operand", name, c.tA, c.tB)
					}
				}()
				call()
			}()
		}
	}
}

func TestDgemmShapes(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 8, 8}, {8, 1, 8}, {8, 8, 1},
		{5, 3, 17}, {64, 64, 64}, {33, 65, 31},
		{300, 10, 10}, {10, 300, 10}, {10, 10, 300},
	}
	for i, s := range shapes {
		gemmCase(t, s[0], s[1], s[2], 1, 0, uint64(200+i))
	}
}

func TestDgemmBlockingBoundaries(t *testing.T) {
	// K values straddling the blocking constant exercise the panel loop.
	for _, k := range []int{gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 3} {
		gemmCase(t, 9, 11, k, 1, 1, uint64(300+k))
	}
}

func TestDgemmAlphaBetaSpecialCases(t *testing.T) {
	cases := []struct{ alpha, beta float64 }{
		{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {-1, 0.25}, {2, -1},
	}
	for i, c := range cases {
		gemmCase(t, 12, 12, 12, c.alpha, c.beta, uint64(400+i))
	}
}

func TestDgemmEmptyDims(t *testing.T) {
	a := matrix.NewDense(0, 5)
	b := matrix.NewDense(5, 4)
	c := matrix.NewDense(0, 4)
	Dgemm(NoTrans, NoTrans, 1, a, b, 0, c) // must not panic
	a2 := matrix.NewDense(3, 0)
	b2 := matrix.NewDense(0, 4)
	c2 := matrix.NewDense(3, 4)
	c2.Fill(7)
	Dgemm(NoTrans, NoTrans, 1, a2, b2, 0, c2)
	if c2.MaxAbs() != 0 {
		t.Fatal("k=0 with beta=0 must zero C")
	}
}

func TestDgemmDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shapes should panic")
		}
	}()
	Dgemm(NoTrans, NoTrans, 1, matrix.NewDense(2, 3), matrix.NewDense(4, 2), 0, matrix.NewDense(2, 2))
}

func TestDgemmOnViews(t *testing.T) {
	// Computation through strided views must match computation on clones.
	r := sim.NewRNG(55)
	big := randDense(r, 20, 20)
	a := big.View(2, 2, 8, 6)
	b := big.View(3, 9, 6, 7)
	c := matrix.NewDense(8, 7)
	c.FillRandom(r)
	want := c.Clone()
	DgemmNaive(NoTrans, NoTrans, 1, a.Clone(), b.Clone(), 1, want)
	Dgemm(NoTrans, NoTrans, 1, a, b, 1, c)
	if d := c.MaxDiff(want); d > 1e-12 {
		t.Fatalf("view DGEMM diff=%v", d)
	}
}

func TestDgemmParallelManyWorkers(t *testing.T) {
	// More workers than column slabs must still be correct.
	gemmCaseWorkers(t, 64, 500, 64, 16)
}

func gemmCaseWorkers(t *testing.T, m, n, k, workers int) {
	t.Helper()
	r := sim.NewRNG(uint64(m*n + k))
	a := randDense(r, m, k)
	b := randDense(r, k, n)
	c := matrix.NewDense(m, n)
	want := matrix.NewDense(m, n)
	DgemmNaive(NoTrans, NoTrans, 1, a, b, 0, want)
	DgemmParallel(NoTrans, NoTrans, 1, a, b, 0, c, workers)
	if d := c.MaxDiff(want); d > 1e-10 {
		t.Fatalf("parallel DGEMM diff=%v", d)
	}
}

func TestDgemmAssociativityProperty(t *testing.T) {
	// (A*B)*C must equal A*(B*C) within roundoff for modest sizes.
	r := sim.NewRNG(77)
	a := randDense(r, 10, 12)
	b := randDense(r, 12, 8)
	c := randDense(r, 8, 9)
	ab := matrix.NewDense(10, 8)
	Dgemm(NoTrans, NoTrans, 1, a, b, 0, ab)
	abc1 := matrix.NewDense(10, 9)
	Dgemm(NoTrans, NoTrans, 1, ab, c, 0, abc1)
	bc := matrix.NewDense(12, 9)
	Dgemm(NoTrans, NoTrans, 1, b, c, 0, bc)
	abc2 := matrix.NewDense(10, 9)
	Dgemm(NoTrans, NoTrans, 1, a, bc, 0, abc2)
	if d := abc1.MaxDiff(abc2); d > 1e-11 {
		t.Fatalf("associativity violated: %v", d)
	}
}

func TestDgemmIdentity(t *testing.T) {
	r := sim.NewRNG(88)
	a := randDense(r, 15, 15)
	id := matrix.NewDense(15, 15)
	id.Identity()
	c := matrix.NewDense(15, 15)
	Dgemm(NoTrans, NoTrans, 1, a, id, 0, c)
	if d := c.MaxDiff(a); d != 0 {
		t.Fatalf("A*I != A (diff %v)", d)
	}
	Dgemm(NoTrans, NoTrans, 1, id, a, 0, c)
	if d := c.MaxDiff(a); d != 0 {
		t.Fatalf("I*A != A (diff %v)", d)
	}
}

func TestGemmFlops(t *testing.T) {
	if GemmFlops(10, 20, 30) != 12000 {
		t.Fatalf("GemmFlops = %v", GemmFlops(10, 20, 30))
	}
}
