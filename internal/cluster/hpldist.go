// Package cluster provides the multi-element Linpack machinery: a real
// distributed LU solver running over the in-process MPI substrate with one
// hybrid compute element per rank (verifiable end-to-end at small scale),
// and the cluster-scale performance simulator that regenerates the paper's
// multi-node figures (Figs. 11-13) at sizes no real execution could reach.
package cluster

import (
	"tianhe/internal/element"
	"tianhe/internal/matrix"
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
	return DistResult{X: r.X, Residual: r.Residual, Passed: r.Passed, Seconds: r.Seconds, GFLOPS: r.GFLOPS}, err
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
