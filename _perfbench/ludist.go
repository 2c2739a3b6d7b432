package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tianhe/internal/adaptive"
	"tianhe/internal/blas"
	"tianhe/internal/cluster"
	"tianhe/internal/element"
	"tianhe/internal/hpl"
	"tianhe/internal/hybrid"
	"tianhe/internal/matrix"
	"tianhe/internal/sim"
)

// luDist runs the three real distributed solvers over the in-process mpi
// substrate. One op is a round of four solves of the same seeded system:
// 1-D on 4 ranks, 2-D on a 2x2 grid with look-ahead, elastic on 4 ranks
// healthy, and elastic with rank 1 dying at half the healthy virtual
// makespan. Each solution is checked against a residual the benchmark
// computes itself, and must be bit-identical from round to round.
type luDist struct {
	n, nb int
	seed  uint64
	refA  *matrix.Dense
	refB  []float64
	first map[string][]float64 // each solver's solution in the first round

	// Traced-pass observations: virtual rates, recovery facts and bytes the
	// solvers allocated.
	vgflops              map[string]float64
	recoveryVS, parityMB float64
	epochs               int
	allocBytes           float64
}

const distRanks = 4

func newLUDist(cfg config) *luDist {
	w := &luDist{n: 1536, nb: 64, seed: cfg.Seed, vgflops: map[string]float64{}}
	if cfg.Small {
		w.n, w.nb = 256, 32
	}
	return w
}

// setup generates the reference system the solvers build internally from
// the same seed; the benchmark checks every solution against it.
func (w *luDist) setup(_ context.Context, rep int, tr *tracer) error {
	id := tr.begin("hpl.generate", -1, int64(rep))
	w.refA, w.refB = hpl.Generate(w.n, w.seed)
	tr.end(id)
	return nil
}

// distSolve is one solver call's outcome, reduced to what the checks need.
type distSolve struct {
	x        []float64
	residual float64
	vgflops  float64
	err      error
}

func (w *luDist) round(tr *tracer, op int64, ph *phase) float64 {
	root := tr.begin("lu.dist_round", -1, op)
	var busy float64
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	timed := func(name string, f func() distSolve) distSolve {
		id := tr.begin(name, root, op)
		t := time.Now()
		s := f()
		busy += time.Since(t).Seconds()
		tr.end(id)
		return s
	}
	solves := map[string]distSolve{}
	solves["cluster.solve1d"] = timed("cluster.solve1d", func() distSolve {
		r, err := cluster.SolveDistributed(cluster.DistConfig{
			N: w.n, NB: w.nb, Ranks: distRanks, Seed: w.seed, Variant: element.ACMLGBoth,
		})
		return distSolve{r.X, r.Residual, r.GFLOPS, err}
	})
	solves["cluster.solve2d"] = timed("cluster.solve2d", func() distSolve {
		r, err := cluster.SolveDistributed2D(cluster.Dist2DConfig{
			N: w.n, NB: w.nb, P: 2, Q: 2, Seed: w.seed, Variant: element.ACMLGBoth, Lookahead: true,
		})
		return distSolve{r.X, r.Residual, r.GFLOPS, err}
	})
	base := cluster.ElasticConfig{N: w.n, NB: w.nb, Ranks: distRanks, Seed: w.seed}
	var healthy cluster.ElasticResult
	solves["cluster.elastic"] = timed("cluster.elastic", func() distSolve {
		r, err := cluster.SolveElastic(base)
		healthy = r
		return distSolve{r.X, r.Residual, r.GFLOPS, err}
	})
	deathCfg := base
	deathCfg.Failures = []cluster.FailureSpec{{Rank: 1, At: sim.Time(0.5) * healthy.Seconds}}
	var death cluster.ElasticResult
	solves["cluster.elastic_death"] = timed("cluster.elastic_death", func() distSolve {
		r, err := cluster.SolveElastic(deathCfg)
		death = r
		return distSolve{r.X, r.Residual, r.GFLOPS, err}
	})
	tr.end(root)
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		w.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}

	for _, name := range []string{"cluster.solve1d", "cluster.solve2d", "cluster.elastic", "cluster.elastic_death"} {
		s := solves[name]
		r := hpl.ScaledResidual(w.refA, s.x, w.refB)
		ph.check(s.err == nil && len(s.x) == w.n && finite(r, s.residual, s.vgflops) &&
			r < hpl.ResidualThreshold && s.vgflops > 0,
			"lu-dist %s round %d: residual %g, err %v", name, op, r, s.err)
		if w.first == nil {
			w.first = map[string][]float64{}
		}
		if ref, ok := w.first[name]; !ok {
			w.first[name] = s.x
		} else {
			ph.check(s.err == nil && matrix.VecMaxDiff(ref, s.x) == 0,
				"lu-dist %s round %d: solution differs from the first round", name, op)
		}
		w.vgflops[name] = s.vgflops
	}
	ph.check(death.Epochs == len(deathCfg.Failures) && len(death.RecoverySeconds) == death.Epochs &&
		len(death.Failed) == 1 && death.Failed[0] == 1,
		"lu-dist elastic death round %d: %d epochs, failed %v; want 1 epoch losing rank 1", op, death.Epochs, death.Failed)
	if len(death.RecoverySeconds) > 0 {
		w.recoveryVS = death.RecoverySeconds[0]
	}
	w.parityMB = float64(death.ParityBytes) / 1e6
	w.epochs = death.Epochs
	return busy
}

func (w *luDist) measure(ctx context.Context, tr *tracer, d time.Duration) (phase, error) {
	return sequential(ctx, d, func(op int64, ph *phase) float64 { return w.round(tr, op, ph) })
}

func (w *luDist) layers(_ context.Context, tr *tracer, traced phase) (map[string]float64, error) {
	st := tr.summarize()
	rounds := float64(st["lu.dist_round"].count())
	if rounds == 0 {
		return nil, fmt.Errorf("lu-dist: traced pass ran no round")
	}
	per := func(name string) float64 { return st[name].total() / rounds }
	v := map[string]float64{
		"hpl.generate_s":          median(st["hpl.generate"].durs()),
		"cluster.solve1d_s":       per("cluster.solve1d"),
		"cluster.solve2d_s":       per("cluster.solve2d"),
		"cluster.elastic_s":       per("cluster.elastic"),
		"cluster.elastic_death_s": per("cluster.elastic_death"),
		"cluster.solve1d_vgflops": w.vgflops["cluster.solve1d"],
		"cluster.solve2d_vgflops": w.vgflops["cluster.solve2d"],
		"cluster.elastic_vgflops": w.vgflops["cluster.elastic"],
		"cluster.alloc_mb":        w.allocBytes / (4 * rounds) / 1e6,
		"cluster.solve_gflops":    4 * hpl.LinpackFlops(w.n) * traced.opsPerSec() / 1e9,
		"recover.host_s":          per("cluster.elastic_death") - per("cluster.elastic"),
		"recover.recovery_vs":     w.recoveryVS,
		"recover.parity_mb":       w.parityMB,
		"recover.epochs":          float64(w.epochs),
	}
	hyb, plain, err := w.hybridProbe()
	if err != nil {
		return nil, err
	}
	v["hybrid.gemm_s"] = hyb
	v["blas.gemm_same_shape_s"] = plain
	v["hybrid.overhead_frac"] = hyb/plain - 1
	return v, nil
}

// hybridProbe times one rank-local trailing update of the 1-D solver (the
// first iteration's shape on 4 ranks) through the real-arithmetic hybrid
// runner and through a single blas.Dgemm call, median of several reps each,
// and checks the two results agree.
func (w *luDist) hybridProbe() (hyb, plain float64, err error) {
	m, n, k := w.n-w.nb, w.n/distRanks, w.nb
	a, _ := hpl.Generate(m, w.seed)
	l, u := a.View(0, 0, m, k), a.View(0, k, k, n)
	el := element.New(element.Config{Seed: w.seed, JitterSigma: -1})
	part := adaptive.NewAdaptive(32, hpl.LinpackFlops(w.n), el.InitialGSplit(), el.CPU.NumCores())
	runner := hybrid.New(el, element.ACMLGBoth, part)
	const reps = 5
	var th, tp []float64
	var ch, cp *matrix.Dense
	for i := 0; i < reps; i++ {
		ch = matrix.NewDense(m, n)
		t := time.Now()
		runner.Gemm(-1, l, u, 1, ch, 0)
		th = append(th, time.Since(t).Seconds())
		cp = matrix.NewDense(m, n)
		t = time.Now()
		blas.Dgemm(blas.NoTrans, blas.NoTrans, -1, l, u, 1, cp)
		tp = append(tp, time.Since(t).Seconds())
	}
	if diff := ch.MaxDiff(cp); !(diff <= 1e-9) {
		return 0, 0, fmt.Errorf("lu-dist: hybrid GEMM differs from blas by %g", diff)
	}
	return median(th), median(tp), nil
}

func (w *luDist) rssMB() (float64, error) { return selfPeakMB() }

func (w *luDist) close() error { return nil }
