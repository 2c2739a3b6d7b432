package cluster

import (
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
)

func TestSolveDistributedSingleRank(t *testing.T) {
	res, err := SolveDistributed(DistConfig{
		N: 192, NB: 32, Ranks: 1, Seed: 1, Variant: element.ACMLGBoth,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("residual %v", res.Residual)
	}
}

func TestSolveDistributedMatchesSerial(t *testing.T) {
	cfg := DistConfig{N: 256, NB: 32, Ranks: 4, Seed: 5, Variant: element.ACMLGBoth}
	res, err := SolveDistributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The serial solver on the same generated system must agree closely.
	a, b := hpl.Generate(cfg.N, cfg.Seed)
	want, err := hpl.Solve(a, b, hpl.Options{NB: cfg.NB})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.VecMaxDiff(res.X, want); d > 1e-8 {
		t.Fatalf("distributed vs serial solution differ by %v", d)
	}
}

func TestSolveDistributedVariousShapes(t *testing.T) {
	for _, c := range []struct {
		n, nb, ranks int
	}{
		{128, 32, 2}, {192, 32, 3}, {256, 64, 2}, {320, 32, 5}, {256, 32, 8},
	} {
		res, err := SolveDistributed(DistConfig{
			N: c.n, NB: c.nb, Ranks: c.ranks, Seed: uint64(c.n + c.ranks),
			Variant: element.ACMLGBoth,
		})
		if err != nil {
			t.Fatalf("N=%d NB=%d ranks=%d: %v", c.n, c.nb, c.ranks, err)
		}
		if res.Residual >= hpl.ResidualThreshold {
			t.Fatalf("N=%d ranks=%d residual %v", c.n, c.ranks, res.Residual)
		}
	}
}

func TestSolveDistributedAllVariants(t *testing.T) {
	for _, v := range element.Variants {
		res, err := SolveDistributed(DistConfig{
			N: 128, NB: 32, Ranks: 2, Seed: 9, Variant: v,
		})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Passed {
			t.Fatalf("%v: residual %v", v, res.Residual)
		}
	}
}

func TestSolveDistributedDeterministic(t *testing.T) {
	cfg := DistConfig{N: 128, NB: 32, Ranks: 4, Seed: 3, Variant: element.ACMLGPipe}
	r1, err1 := SolveDistributed(cfg)
	r2, err2 := SolveDistributed(cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if matrix.VecMaxDiff(r1.X, r2.X) != 0 {
		t.Fatal("same seed must give identical solutions")
	}
	if r1.Seconds != r2.Seconds {
		t.Fatalf("virtual makespans differ: %v vs %v", r1.Seconds, r2.Seconds)
	}
}

func TestSolveDistributedRejectsRaggedN(t *testing.T) {
	if _, err := SolveDistributed(DistConfig{N: 100, NB: 32, Ranks: 2, Variant: element.ACMLG}); err == nil {
		t.Fatal("N not a multiple of NB must be rejected")
	}
}

func TestSolveDistributedSmallGPU(t *testing.T) {
	// A shrunken device forces multi-task pipelined plans inside the
	// distributed updates.
	res, err := SolveDistributed(DistConfig{
		N: 256, NB: 64, Ranks: 2, Seed: 11, Variant: element.ACMLGBoth,
		GPUMem: 2 << 20, GPUTexture: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("residual %v", res.Residual)
	}
}

func TestMoreRanksNotSlower(t *testing.T) {
	// Weak sanity: with enough work, 4 ranks should beat 1 rank in virtual
	// makespan despite communication.
	t1, err1 := SolveDistributed(DistConfig{N: 384, NB: 32, Ranks: 1, Seed: 2, Variant: element.CPUOnly})
	t4, err4 := SolveDistributed(DistConfig{N: 384, NB: 32, Ranks: 4, Seed: 2, Variant: element.CPUOnly})
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	if t4.Seconds >= t1.Seconds {
		t.Fatalf("4 ranks (%v s) should beat 1 rank (%v s)", t4.Seconds, t1.Seconds)
	}
}
