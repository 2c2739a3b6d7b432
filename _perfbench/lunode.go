package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tianhe/internal/blas"
	"tianhe/internal/hpl"
	"tianhe/internal/matrix"
	"tianhe/internal/sweep"
)

// luNode is hplrun's default path: generate, factor with the blas GEMM as
// the trailing update (nproc workers, through hpl.Options.Gemm), solve, and
// check the scaled residual. Each setup generates one distinct input; the
// solves cycle over them.
type luNode struct {
	n, nb, workers int
	seed           uint64
	as             []*matrix.Dense
	bs             [][]float64
	lu             *matrix.Dense
	ipiv           []int

	// Traced-pass accumulators: GEMM work from the call shapes, the worst
	// residual, and bytes the hpl calls allocated.
	gemmFlops, gemmBytes float64
	residMax             float64
	allocBytes           float64
}

func newLUNode(cfg config) *luNode {
	w := &luNode{n: 2048, nb: 64, workers: cfg.Nproc, seed: cfg.Seed}
	if cfg.Small {
		w.n, w.nb = 256, 32
	}
	return w
}

func (w *luNode) setup(_ context.Context, rep int, tr *tracer) error {
	id := tr.begin("hpl.generate", -1, int64(rep))
	a, b := hpl.Generate(w.n, sweep.Seed(w.seed, rep))
	tr.end(id)
	w.as, w.bs = append(w.as, a), append(w.bs, b)
	if w.lu == nil {
		w.lu = matrix.NewDense(w.n, w.n)
		w.ipiv = make([]int, w.n)
	}
	return nil
}

// gemm is the trailing update handed to hpl.Options.Gemm.
func (w *luNode) gemm(tr *tracer, parent int, op int64, workers int) hpl.GemmFunc {
	return func(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
		id := tr.begin("blas.gemm", parent, op)
		blas.DgemmParallel(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c, workers)
		tr.end(id)
		if tr != nil {
			m, n, k := float64(c.Rows), float64(c.Cols), float64(a.Cols)
			w.gemmFlops += blas.GemmFlops(c.Rows, c.Cols, a.Cols)
			// Computed traffic: A and B read once, C read and written.
			w.gemmBytes += 8 * (m*k + k*n + 2*m*n)
		}
	}
}

// solve runs one residual-checked solve on input op mod len(as).
func (w *luNode) solve(tr *tracer, op int64, ph *phase) float64 {
	i := int(op % int64(len(w.as)))
	a, b := w.as[i], w.bs[i]
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	root := tr.begin("lu.solve", -1, op)
	w.lu.CopyFrom(a)
	id := tr.begin("hpl.dgetrf", root, op)
	err := hpl.Dgetrf(w.lu, w.ipiv, hpl.Options{NB: w.nb, Gemm: w.gemm(tr, id, op, w.workers)})
	tr.end(id)
	x := append([]float64(nil), b...)
	id = tr.begin("hpl.solve", root, op)
	hpl.SolveFactored(w.lu, w.ipiv, x)
	tr.end(id)
	id = tr.begin("hpl.residual", root, op)
	r := hpl.ScaledResidual(a, x, b)
	tr.end(id)
	tr.end(root)
	secs := time.Since(t0).Seconds()
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		w.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		w.residMax = max(w.residMax, r)
	}
	ph.check(err == nil && finite(r) && r < hpl.ResidualThreshold,
		"lu-node solve %d: residual %g, err %v", op, r, err)
	return secs
}

func (w *luNode) measure(ctx context.Context, tr *tracer, d time.Duration) (phase, error) {
	return sequential(ctx, d, func(op int64, ph *phase) float64 { return w.solve(tr, op, ph) })
}

func (w *luNode) layers(_ context.Context, tr *tracer, traced phase) (map[string]float64, error) {
	st := tr.summarize()
	solves := float64(st["lu.solve"].count())
	if solves == 0 {
		return nil, fmt.Errorf("lu-node: traced pass ran no solve")
	}
	gemm, dgetrf := st["blas.gemm"], st["hpl.dgetrf"]
	v := map[string]float64{
		"blas.gemm_s":             gemm.total() / solves,
		"blas.gemm_calls":         float64(gemm.count()) / solves,
		"blas.gemm_gflops":        w.gemmFlops / gemm.total() / 1e9,
		"blas.gemm_flop_per_byte": w.gemmFlops / w.gemmBytes,
		"hpl.generate_s":          median(st["hpl.generate"].durs()),
		"hpl.dgetrf_s":            dgetrf.total() / solves,
		"hpl.dgetrf_self_s":       dgetrf.self() / solves,
		"hpl.solve_s":             st["hpl.solve"].total() / solves,
		"hpl.residual_s":          st["hpl.residual"].total() / solves,
		"hpl.residual_max":        w.residMax,
		"hpl.alloc_mb":            w.allocBytes / solves / 1e6,
		"hpl.solve_gflops":        hpl.LinpackFlops(w.n) * traced.opsPerSec() / 1e9,
	}
	// The single-worker baseline of the same factorization's GEMMs.
	single := newTracer()
	w.lu.CopyFrom(w.as[0])
	id := single.begin("hpl.dgetrf", -1, 0)
	flops0 := w.gemmFlops
	err := hpl.Dgetrf(w.lu, w.ipiv, hpl.Options{NB: w.nb, Gemm: w.gemm(single, id, 0, 1)})
	single.end(id)
	if err != nil {
		return nil, fmt.Errorf("lu-node: single-worker baseline: %w", err)
	}
	v["blas.gemm_gflops_1t"] = (w.gemmFlops - flops0) / single.summarize()["blas.gemm"].total() / 1e9
	return v, nil
}

func (w *luNode) rssMB() (float64, error) { return selfPeakMB() }

func (w *luNode) close() error { return nil }
