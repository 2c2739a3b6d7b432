package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"tianhe/internal/cluster"
	"tianhe/internal/element"
	"tianhe/internal/experiments"
	"tianhe/internal/linpacksim"
	"tianhe/internal/serve"
	"tianhe/internal/serve/loadgen"
	"tianhe/internal/sweep"
)

// simPaper regenerates the paper-scale virtual results with no arithmetic.
// One op is the full set: the five Fig 9 variants at N=46080, graph mode at
// look-ahead 0 and at look-ahead 1 with hybrid codelets, SimulateScale at 1
// and 80 cabinets, SimulateElastic clean / with parity / failed, and the
// virtual serve replay (1200 clients, healthy and lost-gpu, at each rate).
// Virtual outputs must be bit-identical from set to set; the Fig 9 ladder
// must keep the paper's order.
type simPaper struct {
	seed    uint64
	workers int
	// scaleN80 and procs80 are Fig 12's full-machine point: 80 cabinets of
	// 64 elements at N=2.24M.
	scaleN80, procs80 int
	traces            [][]loadgen.Arrival

	first []float64 // the first set's virtual outputs
	last  simOutputs
}

// paperN is the Fig 9 problem order; replayClients the serve replay's
// open-loop client count, as in BENCH_serve.json.
const (
	paperN        = 46080
	replayClients = 1200
)

// simVariants names the Fig 9 configurations in the paper's order.
var simVariants = []struct {
	short string
	v     element.Variant
}{
	{"cpu", element.CPUOnly}, {"acmlg", element.ACMLG}, {"adaptive", element.ACMLGAdaptive},
	{"pipe", element.ACMLGPipe}, {"both", element.ACMLGBoth},
}

// simOutputs are one set's virtual results.
type simOutputs struct {
	fig9                        map[string]float64
	graphD0, graphD1Hyb         float64
	scale1, scale80             float64
	elasticClean, elasticParity float64
	elasticFailedGF             float64
	elasticRecovery             float64
	servePeak, lostPeak         float64
	serveP99                    map[float64]float64 // virtual seconds, healthy
	serveBatch8000              float64
	lostDrains                  int
}

func (o simOutputs) values() []float64 {
	v := []float64{o.graphD0, o.graphD1Hyb, o.scale1, o.scale80, o.elasticClean,
		o.elasticParity, o.elasticFailedGF, o.elasticRecovery, o.servePeak, o.lostPeak, o.serveBatch8000}
	for _, s := range simVariants {
		v = append(v, o.fig9[s.short])
	}
	for _, r := range experiments.DefaultServeRates {
		v = append(v, o.serveP99[r])
	}
	return v
}

func newSimPaper(cfg config) *simPaper {
	w := &simPaper{
		seed: cfg.Seed, workers: cfg.Nproc,
		scaleN80: 2240000 - 2240000%1216, procs80: 5120,
	}
	// The Fig 9 ladder is the paper's claim at N=46080, so smoke runs keep
	// that size and shrink only the costly 80-cabinet point.
	if cfg.Small {
		w.scaleN80, w.procs80 = 558144, 320
	}
	return w
}

// setup generates the replay's arrival traces, one per rate, each from its
// own point seed as the serving sweep derives them.
func (w *simPaper) setup(_ context.Context, rep int, tr *tracer) error {
	id := tr.begin("loadgen.generate", -1, int64(rep))
	w.traces = w.traces[:0]
	for i, rate := range experiments.DefaultServeRates {
		w.traces = append(w.traces, loadgen.Generate(loadgen.Config{
			Seed: sweep.Seed(w.seed, i), Clients: replayClients, Rate: rate,
		}))
	}
	tr.end(id)
	return nil
}

func (w *simPaper) set(tr *tracer, op int64, ph *phase) float64 {
	t0 := time.Now()
	root := tr.begin("sim.regen", -1, op)
	span := func(name string, f func()) {
		id := tr.begin(name, root, op)
		f()
		tr.end(id)
	}
	out := simOutputs{fig9: map[string]float64{}, serveP99: map[float64]float64{}}
	for _, s := range simVariants {
		span("linpacksim.run."+s.short, func() {
			out.fig9[s.short] = linpacksim.Run(linpacksim.Config{
				N: paperN, Variant: s.v, Seed: w.seed, PageableLibrary: s.v == element.ACMLG,
			}).GFLOPS
		})
	}
	graph := linpacksim.Config{N: paperN, NB: 1216, Variant: element.ACMLGBoth, Seed: w.seed, Graph: true}
	span("taskgraph.run.d0", func() { out.graphD0 = linpacksim.Run(graph).GFLOPS })
	graph.Lookahead, graph.GraphHybrid = 1, true
	span("taskgraph.run.d1-hyb", func() { out.graphD1Hyb = linpacksim.Run(graph).GFLOPS })

	span("cluster.scale.1cab", func() { out.scale1 = w.scale(280000-280000%1216, 64, w.workers).TFLOPS })
	span("cluster.scale.80cab", func() { out.scale80 = w.scale(w.scaleN80, w.procs80, w.workers).TFLOPS })

	model := cluster.ElasticSimConfig{N: 19456, NB: 128, Elements: 24}
	span("cluster.elasticsim", func() {
		out.elasticClean = cluster.SimulateElastic(model).Seconds
		model.Parity = true
		out.elasticParity = cluster.SimulateElastic(model).Seconds
		model.FailFrac = 0.5
		failed := cluster.SimulateElastic(model)
		out.elasticFailedGF, out.elasticRecovery = failed.GFLOPS, failed.RecoverySeconds
	})

	for i, rate := range experiments.DefaultServeRates {
		span("serve.replay", func() { w.replay(i, rate, &out, ph) })
	}
	tr.end(root)
	secs := time.Since(t0).Seconds()

	ladder := true
	for i := 1; i < len(simVariants); i++ {
		ladder = ladder && out.fig9[simVariants[i-1].short] < out.fig9[simVariants[i].short]
	}
	ph.check(out.lostDrains > 0, "sim-paper set %d: the lost-gpu replays never drained a batch", op)
	ph.check(ladder, "sim-paper set %d: Fig 9 ladder out of order: %v", op, out.fig9)
	vals := out.values()
	ok := true
	for _, v := range vals {
		ok = ok && finite(v) && v >= 0
	}
	ph.check(ok && out.elasticRecovery > 0, "sim-paper set %d: non-finite or missing virtual output %v", op, vals)
	if w.first == nil {
		w.first = vals
	} else {
		same := len(vals) == len(w.first)
		for i := range vals {
			same = same && math.Float64bits(vals[i]) == math.Float64bits(w.first[i])
		}
		ph.check(same, "sim-paper set %d: virtual outputs differ from the first set", op)
	}
	w.last = out
	return secs
}

func (w *simPaper) scale(n, procs, workers int) cluster.ScaleResult {
	return cluster.SimulateScale(cluster.ScaleConfig{
		N: n, NB: 1216, Processes: procs, Seed: w.seed,
		Policy: cluster.PolicyAdaptive, Downclock: true, Workers: workers,
	})
}

// replay runs rate i's trace against a healthy service, then against one
// losing a GPU over the healthy makespan, and checks the serving contract.
func (w *simPaper) replay(i int, rate float64, out *simOutputs, ph *phase) {
	pointSeed := sweep.Seed(w.seed, i)
	trace := w.traces[i]
	run := func(cfg serve.Config) (loadgen.Report, error) {
		s, err := serve.New(cfg)
		if err != nil {
			return loadgen.Report{}, err
		}
		return loadgen.Replay(s, trace)
	}
	healthy, err := run(serve.Config{Seed: pointSeed, Workers: serve.DefaultWorkers})
	ph.check(err == nil && replayOK(healthy), "sim-paper healthy replay at %g jobs/s: err %v, report %+v", rate, err, healthy.Stats)
	lost, err := run(serve.Config{
		Seed: pointSeed, Workers: serve.DefaultWorkers,
		Scenario: "lost-gpu", ScenarioHorizon: healthy.Makespan,
	})
	ph.check(err == nil && replayOK(lost),
		"sim-paper lost-gpu replay at %g jobs/s: err %v, report %+v", rate, err, lost.Stats)
	out.servePeak = max(out.servePeak, healthy.Throughput)
	out.lostPeak = max(out.lostPeak, lost.Throughput)
	out.lostDrains += lost.Stats.Drains
	out.serveP99[rate] = healthy.P99
	if rate == 8000 {
		out.serveBatch8000 = healthy.MeanBatchJobs
	}
}

func replayOK(r loadgen.Report) bool {
	return r.Failed == 0 && r.Stats.Admitted+r.Stats.Rejected == r.Arrivals &&
		finite(r.Throughput, r.P99) && r.Throughput > 0
}

func (w *simPaper) measure(ctx context.Context, tr *tracer, d time.Duration) (phase, error) {
	return sequential(ctx, d, func(op int64, ph *phase) float64 { return w.set(tr, op, ph) })
}

func (w *simPaper) layers(_ context.Context, tr *tracer, _ phase) (map[string]float64, error) {
	st := tr.summarize()
	sets := float64(st["sim.regen"].count())
	if sets == 0 {
		return nil, fmt.Errorf("sim-paper: traced pass ran no set")
	}
	per := func(name string) float64 { return st[name].total() / sets }
	o := w.last
	v := map[string]float64{
		"sim.regen_s":                     per("sim.regen"),
		"taskgraph.run_s.d0":              per("taskgraph.run.d0"),
		"taskgraph.run_s.d1-hyb":          per("taskgraph.run.d1-hyb"),
		"taskgraph.vgflops.d0":            o.graphD0,
		"taskgraph.vgflops.d1-hyb":        o.graphD1Hyb,
		"cluster.scale_s.1cab":            per("cluster.scale.1cab"),
		"cluster.scale_s.80cab":           per("cluster.scale.80cab"),
		"cluster.scale_vtflops.1cab":      o.scale1,
		"cluster.scale_vtflops.80cab":     o.scale80,
		"cluster.elasticsim_s":            per("cluster.elasticsim"),
		"cluster.elasticsim_overhead_pct": 100 * (o.elasticParity - o.elasticClean) / o.elasticClean,
		"cluster.elasticsim_recovery_vs":  o.elasticRecovery,
		"serve.replay_s":                  per("serve.replay"),
		"serve.vjobs_per_s":               o.servePeak,
		"serve.vp99_ms.2000":              1e3 * o.serveP99[2000],
		"serve.vp99_ms.8000":              1e3 * o.serveP99[8000],
		"serve.mean_batch_jobs":           o.serveBatch8000,
		"serve.lostgpu_vjobs_per_s":       o.lostPeak,
	}
	for _, s := range simVariants {
		v["linpacksim.run_s."+s.short] = per("linpacksim.run." + s.short)
		v["linpacksim.vgflops."+s.short] = o.fig9[s.short]
	}
	// SimulateScale's element loop on one worker against nproc workers.
	t := time.Now()
	one := w.scale(w.scaleN80, w.procs80, 1)
	serial := time.Since(t).Seconds()
	if math.Float64bits(one.TFLOPS) != math.Float64bits(o.scale80) {
		return nil, fmt.Errorf("sim-paper: SimulateScale on 1 worker gives %v TFLOPS, on %d workers %v",
			one.TFLOPS, w.workers, o.scale80)
	}
	v["sweep.speedup"] = serial / per("cluster.scale.80cab")
	return v, nil
}

func (w *simPaper) rssMB() (float64, error) { return selfPeakMB() }

func (w *simPaper) close() error { return nil }
