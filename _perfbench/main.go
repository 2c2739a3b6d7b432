// Command perfbench is the repository's benchmark. It drives the hpl, blas,
// cluster, linpacksim, serve/loadgen and tianhed layers from outside, through
// their public functions, and measures both clocks: host time of the Go
// program and the virtual time of the simulated machine.
//
// Run it through run.sh, which builds it and the daemon first:
//
//	bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads, and why each exists:
//
//   - lu-node: residual-checked dense solves (hpl with the blas GEMM behind
//     hpl.Options.Gemm); the only workload where the blas kernel dominates.
//   - lu-dist: the three real distributed solvers (1-D, 2-D with look-ahead,
//     elastic healthy and with a rank death): mpi, cluster, recover, hybrid.
//   - sim-paper: the paper-scale virtual runs with no arithmetic: linpacksim,
//     taskgraph, the cluster models and a virtual serve replay.
//   - serve-live: a fresh tianhed daemon per run, fed the seeded loadgen
//     request mix over HTTP, open loop then closed loop.
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced pass, and the spans are written under --spans. Every operation's
// output is checked; a failed check counts in "failed" and clears "correct".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// workload is one benchmark workload. setup runs setupReps times before any
// timed op; measure runs timed ops for about d (tr nil: untraced); layers
// turns a traced pass into per-layer metrics, running any traced-only probes.
type workload interface {
	setup(ctx context.Context, rep int, tr *tracer) error
	measure(ctx context.Context, tr *tracer, d time.Duration) (phase, error)
	layers(ctx context.Context, tr *tracer, traced phase) (map[string]float64, error)
	rssMB() (float64, error)
	close() error
}

// phase is what one measure call observed. Latencies are per op; ops/busy
// give throughput; attempted/failed count checked outputs.
type phase struct {
	latMS             []float64
	ops               int
	busy              float64 // seconds the throughput is taken over
	attempted, failed int
	notes             []string // first few failure descriptions
}

func (p *phase) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		if len(p.notes) < 8 {
			p.notes = append(p.notes, fmt.Sprintf(format, args...))
		}
	}
}

func (p *phase) opsPerSec() float64 {
	if p.busy <= 0 {
		return 0
	}
	return float64(p.ops) / p.busy
}

// sequential runs op back to back until d has passed (at least once). op
// returns the seconds its timed part took; throughput is ops over the sum.
func sequential(ctx context.Context, d time.Duration, op func(id int64, ph *phase) float64) (phase, error) {
	var ph phase
	start := time.Now()
	for id := int64(0); id == 0 || time.Since(start) < d; id++ {
		if err := ctx.Err(); err != nil {
			return ph, err
		}
		secs := op(id, &ph)
		ph.latMS = append(ph.latMS, secs*1e3)
		ph.ops++
		ph.busy += secs
	}
	return ph, nil
}

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Nproc    int
	Tianhed  string
	// Small shrinks every problem to smoke-test size.
	Small bool
}

// runRecord identifies the run: the machine, the toolchain and the inputs.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	spans *tracer // the traced pass's spans, written out after the run
}

var workloadNames = []string{"lu-node", "lu-dist", "sim-paper", "serve-live"}

func newWorkload(cfg config) (workload, error) {
	switch cfg.Workload {
	case "lu-node":
		return newLUNode(cfg), nil
	case "lu-dist":
		return newLUDist(cfg), nil
	case "sim-paper":
		return newSimPaper(cfg), nil
	case "serve-live":
		return newServeLive(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", cfg.Workload, strings.Join(workloadNames, ", "))
}

// run executes one benchmark pass and returns its result.
func run(ctx context.Context, cfg config) (res result, err error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		if err := w.setup(ctx, rep, tr); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	d := time.Duration(cfg.Seconds * float64(time.Second))
	var vals map[string]float64
	var checked []phase
	if !cfg.Trace {
		ph, err := w.measure(ctx, nil, d)
		if err != nil {
			return result{}, err
		}
		rss, err := w.rssMB()
		if err != nil {
			return result{}, err
		}
		checked = append(checked, ph)
		vals = map[string]float64{
			"setup_s":        median(setups),
			"ops_per_s":      ph.opsPerSec(),
			"latency_p50_ms": median(ph.latMS),
			"rss_mb":         rss,
		}
	} else {
		// Half the time untraced, half traced: the throughput ratio is the
		// tracing overhead.
		plain, err := w.measure(ctx, nil, d/2)
		if err != nil {
			return result{}, err
		}
		traced, err := w.measure(ctx, tr, d/2)
		if err != nil {
			return result{}, err
		}
		checked = append(checked, plain, traced)
		if vals, err = w.layers(ctx, tr, traced); err != nil {
			return result{}, err
		}
		if traced.opsPerSec() > 0 {
			vals["trace.overhead_frac"] = plain.opsPerSec()/traced.opsPerSec() - 1
		}
	}
	table := endToEnd
	if cfg.Trace {
		table = perLayer
	}
	if res.Metrics, err = fill(table, vals); err != nil {
		return result{}, err
	}
	for _, ph := range checked {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, n := range ph.notes {
			fmt.Fprintln(os.Stderr, "perfbench: failed check:", n)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.spans = tr
	return res, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.Seed, "seed", 2009, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.Tianhed, "tianhed", "", "tianhed binary (serve-live)")
	commit := flag.String("commit", "none", "commit the binaries were built from")
	source := flag.String("source", "", "digest of the sources the binaries were built from")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced pass writes its spans to")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg.Trace = *traceFlag == 1
	cfg.Nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.Nproc)

	rec := runRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Nproc: cfg.Nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: *commit, Source: *source,
	}
	recLine, _ := json.Marshal(rec) // plain struct of strings and numbers: cannot fail
	fmt.Printf("%s\n", recLine)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	if res.spans != nil {
		name := fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed)
		if err := res.spans.write(*spans, name, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
