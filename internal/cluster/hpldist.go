// Package cluster provides the multi-element Linpack machinery: a real
// distributed LU solver running over the in-process MPI substrate with one
// hybrid compute element per rank (verifiable end-to-end at small scale),
// and the cluster-scale performance simulator that regenerates the paper's
// multi-node figures (Figs. 11-13) at sizes no real execution could reach.
package cluster

import (
	"fmt"

	"tianhe/internal/adaptive"
	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/hybrid"
	"tianhe/internal/matrix"
	"tianhe/internal/mpi"
	"tianhe/internal/sim"
)

// DistConfig describes a real distributed solve on a 1 x Q column
// block-cyclic layout: rank q owns every global block-column b with
// b % Q == q. N must be a multiple of NB.
type DistConfig struct {
	N, NB int
	Ranks int
	Seed  uint64
	// Variant selects each rank's compute-element configuration.
	Variant element.Variant
	// GPUMem and GPUTexture shrink the per-rank simulated device so small
	// test problems still exercise multi-task plans; zero keeps defaults.
	GPUMem     int64
	GPUTexture int
}

// DistResult reports a distributed solve.
type DistResult struct {
	X        []float64
	Residual float64
	Passed   bool
	// Seconds is the parallel virtual makespan across ranks.
	Seconds sim.Time
	GFLOPS  float64
}

// SolveDistributed factors and solves a dense system across cfg.Ranks
// processes, each backed by its own compute element, and verifies the
// residual against the original matrix. It is the 1-D rank loop of
// SolveElastic with heartbeats and parity off. Everything computes for
// real; all times are virtual.
func SolveDistributed(cfg DistConfig) (DistResult, error) {
	r, err := solve1D(loop1D{
		ElasticConfig: ElasticConfig{N: cfg.N, NB: cfg.NB, Ranks: cfg.Ranks, Seed: cfg.Seed, DisableParity: true},
		variant:       cfg.Variant,
		gpuMem:        cfg.GPUMem,
		gpuTexture:    cfg.GPUTexture,
	})
	return r.DistResult, err
}

// newRankRunner builds one rank's compute element, the adaptive partitioner
// of adaptive variants, and the hybrid runner that books its trailing
// updates. Each solver derives seed from its own per-rank multiplier.
func newRankRunner(seed uint64, n int, variant element.Variant, gpuMem int64, gpuTexture int) (*element.Element, *hybrid.Runner) {
	el := element.New(element.Config{
		Seed:        seed,
		JitterSigma: -1,
		GPUMem:      gpuMem,
		GPUTexture:  gpuTexture,
	})
	var part adaptive.Partitioner
	if variant.Adaptive() {
		part = adaptive.NewAdaptive(32, hpl.LinpackFlops(n), el.InitialGSplit(), el.CPU.NumCores())
	}
	return el, hybrid.New(el, variant, part)
}

// advance books flops of host work at gflops on the rank's virtual clock.
func advance(comm *mpi.Comm, flops, gflops float64) {
	comm.Advance(sim.Time(flops / (gflops * 1e9)))
}

// checkSolution is the shared tail of both solvers: every rank that
// finished (non-nil xs entry) must hold the same X, which is then checked
// against the original system a, b. end is the parallel virtual makespan.
func checkSolution(a *matrix.Dense, b []float64, xs [][]float64, end sim.Time) (DistResult, error) {
	res := DistResult{Seconds: end}
	for _, x := range xs {
		if x == nil {
			continue
		}
		if res.X == nil {
			res.X = x
		} else if matrix.VecMaxDiff(res.X, x) != 0 {
			return DistResult{Seconds: end}, fmt.Errorf("cluster: ranks disagree on the solution")
		}
	}
	res.Residual = hpl.ScaledResidual(a, res.X, b)
	res.Passed = res.Residual < hpl.ResidualThreshold
	res.GFLOPS = hpl.LinpackFlops(a.Rows) / float64(end) / 1e9
	if !res.Passed {
		return res, fmt.Errorf("cluster: residual %g exceeds threshold", res.Residual)
	}
	return res, nil
}

// encodePanel packs a factored panel and its pivots into one float slice.
func encodePanel(p *matrix.Dense, ipiv []int) []float64 {
	buf := make([]float64, 0, p.Rows*p.Cols+len(ipiv))
	for j := 0; j < p.Cols; j++ {
		buf = append(buf, p.Col(j)...)
	}
	for _, v := range ipiv {
		buf = append(buf, float64(v))
	}
	return buf
}

// decodePanel is the inverse of encodePanel.
func decodePanel(buf []float64, m, nb int) (*matrix.Dense, []int) {
	p := matrix.NewDense(m, nb)
	off := 0
	for j := 0; j < nb; j++ {
		copy(p.Col(j), buf[off:off+m])
		off += m
	}
	ipiv := make([]int, nb)
	for i := range ipiv {
		ipiv[i] = int(buf[off+i])
	}
	return p, ipiv
}
