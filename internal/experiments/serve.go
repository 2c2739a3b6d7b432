package experiments

import (
	"context"
	"fmt"
	"io"

	"tianhe/internal/fault"
	"tianhe/internal/serve"
	"tianhe/internal/serve/loadgen"
	"tianhe/internal/sim"
	"tianhe/internal/sweep"
	"tianhe/internal/telemetry"
)

// ServeConfig parameterizes one serving sweep: the same seeded open-loop
// load replayed against the solver service at each arrival rate.
type ServeConfig struct {
	Seed     uint64
	Scenario string // "" or "healthy" for the fault-free sweep
	Clients  int
	Workers  int
	// Rates are the open-loop aggregate arrival rates (jobs per virtual
	// second), one sweep point each. Nil selects DefaultServeRates.
	Rates []float64
	// Horizon is the arrival window of every point. 0 selects the loadgen
	// default.
	Horizon sim.Time
}

// DefaultServeRates spans from an unloaded service past its saturation
// point, roughly doubling per step.
var DefaultServeRates = []float64{500, 1000, 2000, 4000, 8000, 16000}

// ServeTenant is one tenant's outcome at one sweep point.
type ServeTenant struct {
	Tenant     string  `json:"tenant"`
	Completed  int     `json:"completed"`
	Rejected   int     `json:"rejected"`
	P50Seconds float64 `json:"p50_latency_seconds"`
	P99Seconds float64 `json:"p99_latency_seconds"`
}

// ServePoint is one arrival-rate measurement of ServeSweep. Latencies are
// exact order statistics over completed jobs, in virtual seconds.
type ServePoint struct {
	Rate     float64 `json:"rate_jobs_per_s"`
	Arrivals int     `json:"arrivals"`

	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	// Failed is admitted-but-never-completed; the service contract keeps
	// it zero, and the acceptance verdict fails the sweep otherwise.
	Failed  int `json:"failed"`
	Batches int `json:"batches"`
	Drains  int `json:"drains"`

	MeanBatchJobs float64 `json:"mean_batch_jobs"`
	Throughput    float64 `json:"throughput_jobs_per_s"`
	P50Seconds    float64 `json:"p50_latency_seconds"`
	P99Seconds    float64 `json:"p99_latency_seconds"`
	Makespan      float64 `json:"makespan_seconds"`

	// HealthyThroughput is the same trace on a fault-free service; set
	// only when the sweep runs a fault scenario. DegradationPct is the
	// throughput lost to the scenario, in percent.
	HealthyThroughput float64 `json:"healthy_throughput_jobs_per_s,omitempty"`
	DegradationPct    float64 `json:"degradation_pct,omitempty"`

	Tenants []ServeTenant `json:"tenants"`
}

// servePoint measures one rate, returning the faulted measurement when the
// config names a scenario (with the healthy reference folded in).
func servePoint(cfg ServeConfig, i int, rate float64, tel *telemetry.Telemetry) (ServePoint, error) {
	pointSeed := sweep.Seed(cfg.Seed, i)
	trace := loadgen.Generate(loadgen.Config{
		Seed: pointSeed, Clients: cfg.Clients, Rate: rate, Horizon: cfg.Horizon,
	})
	scenario := cfg.Scenario != "" && cfg.Scenario != "healthy"

	// The reference run: fault-free, instrumented only when it is the
	// measured run.
	refTel := tel
	if scenario {
		refTel = telemetry.Disabled()
	}
	ref, err := serve.New(serve.Config{Seed: pointSeed, Workers: cfg.Workers, Telemetry: refTel})
	if err != nil {
		return ServePoint{}, err
	}
	rep, err := loadgen.Replay(ref, trace)
	if err != nil {
		return ServePoint{}, err
	}

	var healthy loadgen.Report
	if scenario {
		healthy = rep
		faulted, err := serve.New(serve.Config{
			Seed: pointSeed, Workers: cfg.Workers,
			Scenario: cfg.Scenario, ScenarioHorizon: healthy.Makespan,
			Telemetry: tel,
		})
		if err != nil {
			return ServePoint{}, err
		}
		rep, err = loadgen.Replay(faulted, trace)
		if err != nil {
			return ServePoint{}, err
		}
	}

	pt := ServePoint{
		Rate:          rate,
		Arrivals:      rep.Arrivals,
		Admitted:      rep.Stats.Admitted,
		Rejected:      rep.Stats.Rejected,
		Completed:     rep.Stats.Completed,
		Failed:        rep.Failed,
		Batches:       rep.Stats.Batches,
		Drains:        rep.Stats.Drains,
		MeanBatchJobs: rep.MeanBatchJobs,
		Throughput:    rep.Throughput,
		P50Seconds:    rep.P50,
		P99Seconds:    rep.P99,
		Makespan:      float64(rep.Makespan),
	}
	if scenario {
		pt.HealthyThroughput = healthy.Throughput
		if healthy.Throughput > 0 {
			pt.DegradationPct = 100 * (healthy.Throughput - rep.Throughput) / healthy.Throughput
		}
	}
	for _, ts := range rep.Tenants {
		pt.Tenants = append(pt.Tenants, ServeTenant{
			Tenant:     ts.Tenant,
			Completed:  ts.Completed,
			Rejected:   ts.Rejected,
			P50Seconds: ts.P50Latency,
			P99Seconds: ts.P99Latency,
		})
	}
	return pt, nil
}

// ServeSweep replays the seeded open-loop load at every configured arrival
// rate, on par workers. Each point is independent (its own service, its own
// trace) and records into an isolated child bundle, so tables and telemetry
// merge back in rate order byte-identically to the serial sweep.
func ServeSweep(cfg ServeConfig, tel *telemetry.Telemetry, par int) ([]ServePoint, error) {
	if cfg.Clients == 0 {
		cfg.Clients = loadgen.DefaultClients
	}
	if cfg.Workers == 0 {
		cfg.Workers = serve.DefaultWorkers
	}
	if cfg.Rates == nil {
		cfg.Rates = DefaultServeRates
	}
	if cfg.Scenario != "" {
		if _, err := fault.Scenario(cfg.Scenario, 1); err != nil {
			return nil, err
		}
	}
	type outcome struct {
		pt  ServePoint
		err error
	}
	results := sweep.MapTel(context.Background(), par, tel, cfg.Rates,
		func(i int, rate float64, tel *telemetry.Telemetry) outcome {
			pt, err := servePoint(cfg, i, rate, tel)
			return outcome{pt: pt, err: err}
		})
	points := make([]ServePoint, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		points = append(points, r.pt)
	}
	return points, nil
}

// Saturation locates the service's saturation point in a fault-free sweep:
// the highest measured sustained throughput, and the lowest rate at which
// the service visibly saturates (rejections appear, or throughput falls
// under 90% of the offered rate). The bar is 90%, not tighter, because
// throughput divides by the makespan and the last batch always completes
// after the last arrival — at low rates that tail shaves a few percent off
// delivered/offered without the service being remotely busy. A saturation
// rate of 0 means no swept rate saturated the service.
func Saturation(points []ServePoint) (rate, peak float64) {
	for _, p := range points {
		if p.Throughput > peak {
			peak = p.Throughput
		}
		if rate == 0 && (p.Rejected > 0 || p.Throughput < 0.9*p.Rate) {
			rate = p.Rate
		}
	}
	return rate, peak
}

// ServeVerdict checks a sweep against the serving contract: every point
// completed every admitted job (zero failures), and a fault sweep actually
// exercised the drain path. The returned error lists every violation.
func ServeVerdict(points []ServePoint, scenario string) error {
	var fails []string
	if len(points) == 0 {
		fails = append(fails, "sweep produced no points")
	}
	drains := 0
	for _, p := range points {
		if p.Failed != 0 {
			fails = append(fails, fmt.Sprintf("rate %g: %d admitted jobs never completed", p.Rate, p.Failed))
		}
		if p.Admitted+p.Rejected != p.Arrivals {
			fails = append(fails, fmt.Sprintf("rate %g: admission accounting broken (%d+%d != %d)",
				p.Rate, p.Admitted, p.Rejected, p.Arrivals))
		}
		drains += p.Drains
	}
	if scenario == "lost-gpu" && drains == 0 {
		fails = append(fails, "lost-gpu sweep never drained a batch")
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("serve acceptance failed: %v", fails)
}

// ServeBenchSchema versions the BENCH_serve.json artifact.
const ServeBenchSchema = "tianhe/serve-bench/v1"

// ServeBenchResult is the committed perf-trajectory artifact
// (BENCH_serve.json): the serving sweep healthy and under lost-gpu, with
// the saturation summary the CI regression guard checks against. Every
// number is virtual-time and regenerates bit-identically from the seed, so
// any drift between a fresh run and the committed baseline is a real code
// change, not measurement noise.
type ServeBenchResult struct {
	Schema  string `json:"schema"`
	Seed    uint64 `json:"seed"`
	Clients int    `json:"clients"`
	Workers int    `json:"workers"`

	// SaturationRate is the lowest swept rate that saturated the service;
	// PeakThroughput the highest sustained jobs/s measured (both over the
	// healthy sweep).
	SaturationRate float64 `json:"saturation_rate_jobs_per_s"`
	PeakThroughput float64 `json:"peak_throughput_jobs_per_s"`

	Healthy []ServePoint `json:"healthy"`
	LostGPU []ServePoint `json:"lost_gpu"`
}

// ServeBench runs the full benchmark trajectory: the healthy rate sweep and
// the lost-gpu sweep over the same traces, with the acceptance verdicts
// applied.
func ServeBench(seed uint64, clients, workers int, rates []float64, par int) (ServeBenchResult, error) {
	cfg := ServeConfig{Seed: seed, Clients: clients, Workers: workers, Rates: rates}
	healthy, err := ServeSweep(cfg, telemetry.Disabled(), par)
	if err != nil {
		return ServeBenchResult{}, err
	}
	if err := ServeVerdict(healthy, ""); err != nil {
		return ServeBenchResult{}, err
	}
	cfg.Scenario = "lost-gpu"
	lost, err := ServeSweep(cfg, telemetry.Disabled(), par)
	if err != nil {
		return ServeBenchResult{}, err
	}
	if err := ServeVerdict(lost, "lost-gpu"); err != nil {
		return ServeBenchResult{}, err
	}
	res := ServeBenchResult{
		Schema:  ServeBenchSchema,
		Seed:    seed,
		Clients: cfg.Clients,
		Workers: cfg.Workers,
		Healthy: healthy,
		LostGPU: lost,
	}
	res.SaturationRate, res.PeakThroughput = Saturation(healthy)
	return res, nil
}

// WriteServeTable renders a sweep as a fixed-format text table, one block
// per point with its per-tenant rows — the diffable verdict table of the
// serving goldens.
func WriteServeTable(w io.Writer, title string, points []ServePoint) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%10s %8s %8s %8s %8s %7s %9s %12s %12s %12s\n",
		"rate", "arrive", "admit", "reject", "done", "drains", "batchavg", "jobs/s", "p50ms", "p99ms")
	for _, p := range points {
		fmt.Fprintf(w, "%10g %8d %8d %8d %8d %7d %9.2f %12.2f %12.4f %12.4f\n",
			p.Rate, p.Arrivals, p.Admitted, p.Rejected, p.Completed, p.Drains,
			p.MeanBatchJobs, p.Throughput, 1e3*p.P50Seconds, 1e3*p.P99Seconds)
		for _, ts := range p.Tenants {
			fmt.Fprintf(w, "    tenant %-8s done=%-6d rej=%-6d p50ms=%-10.4f p99ms=%-10.4f\n",
				ts.Tenant, ts.Completed, ts.Rejected, 1e3*ts.P50Seconds, 1e3*ts.P99Seconds)
		}
	}
}
