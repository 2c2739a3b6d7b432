package cluster

import (
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
)

func TestLookaheadCorrectAcrossGrids(t *testing.T) {
	for _, c := range []struct{ p, q int }{
		{1, 1}, {2, 1}, {1, 3}, {2, 2}, {3, 2}, {2, 4},
	} {
		res, err := SolveDistributed2D(Dist2DConfig{
			N: 192, NB: 32, P: c.p, Q: c.q, Seed: uint64(7*c.p + c.q),
			Variant: element.ACMLGBoth, Lookahead: true,
		})
		if err != nil {
			t.Fatalf("%dx%d lookahead: %v", c.p, c.q, err)
		}
		if !res.Passed {
			t.Fatalf("%dx%d lookahead residual %v", c.p, c.q, res.Residual)
		}
	}
}

func TestLookaheadMatchesNonLookaheadSolution(t *testing.T) {
	base := Dist2DConfig{N: 256, NB: 32, P: 2, Q: 2, Seed: 31, Variant: element.ACMLGBoth}
	plain, err := SolveDistributed2D(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Lookahead = true
	la, err := SolveDistributed2D(base)
	if err != nil {
		t.Fatal(err)
	}
	// The arithmetic is identical (same pivots, same operations, only
	// reordered between ranks), so the solutions must agree exactly.
	if d := matrix.VecMaxDiff(plain.X, la.X); d != 0 {
		t.Fatalf("lookahead changed the solution by %v", d)
	}
}

func TestLookaheadReducesMakespan(t *testing.T) {
	// With several ranks, hiding the panel factorization and its broadcast
	// behind the bulk update must shorten the virtual makespan.
	base := Dist2DConfig{N: 384, NB: 32, P: 2, Q: 4, Seed: 33, Variant: element.ACMLGBoth}
	plain, err := SolveDistributed2D(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Lookahead = true
	la, err := SolveDistributed2D(base)
	if err != nil {
		t.Fatal(err)
	}
	if la.Seconds >= plain.Seconds {
		t.Fatalf("lookahead %v s should beat %v s", la.Seconds, plain.Seconds)
	}
}

func TestLookaheadMatchesSerialSolver(t *testing.T) {
	cfg := Dist2DConfig{N: 192, NB: 32, P: 2, Q: 3, Seed: 35,
		Variant: element.ACMLGBoth, Lookahead: true}
	res, err := SolveDistributed2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := hpl.Generate(cfg.N, cfg.Seed)
	want, err := hpl.Solve(a, b, hpl.Options{NB: cfg.NB})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.VecMaxDiff(res.X, want); d > 1e-8 {
		t.Fatalf("lookahead vs serial differ by %v", d)
	}
}
