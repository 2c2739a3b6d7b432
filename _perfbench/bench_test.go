package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"tianhe/internal/experiments"
)

// buildTianhed builds the daemon once per test binary.
func buildTianhed(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tianhed")
	out, err := exec.Command("go", "build", "-o", bin, "tianhe/cmd/tianhed").CombinedOutput()
	if err != nil {
		t.Fatalf("building tianhed: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeEveryWorkload runs every workload at smoke-test size, untraced
// and traced, on the default seed and a second one: every op must pass its
// checks and every metric of the pass's table must be reported.
func TestSmokeEveryWorkload(t *testing.T) {
	bin := buildTianhed(t)
	for _, name := range workloadNames {
		for _, seed := range []uint64{experiments.DefaultSeed, 7} {
			for _, traced := range []bool{false, true} {
				cfg := config{Workload: name, Seed: seed, Seconds: 0.2, Trace: traced,
					Nproc: runtime.NumCPU(), Tianhed: bin, Small: true}
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct %v, %d of %d failed",
						name, seed, traced, res.Correct, res.Failed, res.Attempted)
				}
				table := endToEnd
				if traced {
					table = perLayer
				}
				if len(res.Metrics) != len(table) {
					t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(table))
				}
				if !traced {
					for _, d := range endToEnd {
						if v := res.Metrics[d.Name].Value; !(v > 0) {
							t.Errorf("%s seed %d: end-to-end %s = %v, want > 0", name, seed, d.Name, v)
						}
					}
				}
			}
		}
	}
}

// TestLUNodeGemmPlusSelfIsDgetrf checks the traced lu-node breakdown: the
// GEMM spans and dgetrf's self time add up to dgetrf.
func TestLUNodeGemmPlusSelfIsDgetrf(t *testing.T) {
	res, err := run(context.Background(), config{Workload: "lu-node", Seed: 3, Seconds: 0.2,
		Trace: true, Nproc: runtime.NumCPU(), Small: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	gemm, self, whole := m["blas.gemm_s"].Value, m["hpl.dgetrf_self_s"].Value, m["hpl.dgetrf_s"].Value
	if gemm <= 0 || self <= 0 || math.Abs(gemm+self-whole) > 1e-9*whole {
		t.Errorf("blas.gemm_s %v + hpl.dgetrf_self_s %v != hpl.dgetrf_s %v", gemm, self, whole)
	}
}

// TestSelfTimeCountsOverlapOnce checks the self-time rule on overlapping
// and overhanging children.
func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "p", Start: 0, End: 100, Parent: -1},
		{Name: "c", Start: 10, End: 30, Parent: 0},
		{Name: "c", Start: 20, End: 40, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
	}}
	st := tr.summarize()
	if got := st["p"].SelfNS; got != 100-30-10 {
		t.Errorf("self time %d, want 60", got)
	}
	if got := st["c"].Count; got != 3 {
		t.Errorf("child count %d, want 3", got)
	}
}

// TestVirtualCellsMatchCommittedBenchmarks runs one full-size sim-paper set
// at the default seed and requires its virtual cells to equal the committed
// BENCH_graphlu.json and BENCH_serve.json bit for bit.
func TestVirtualCellsMatchCommittedBenchmarks(t *testing.T) {
	var graph experiments.GraphLUBenchResult
	var srv experiments.ServeBenchResult
	readJSON(t, "../BENCH_graphlu.json", &graph)
	readJSON(t, "../BENCH_serve.json", &srv)
	cell := map[string]float64{}
	for _, c := range graph.Cells {
		cell[c.Mode] = c.GFLOPS
	}
	p99 := map[float64]float64{}
	for _, p := range srv.Healthy {
		p99[p.Rate] = p.P99Seconds
	}

	w := newSimPaper(config{Seed: experiments.DefaultSeed, Nproc: runtime.NumCPU()})
	if err := w.setup(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	var ph phase
	w.set(nil, 0, &ph)
	if ph.failed != 0 {
		t.Fatalf("sim-paper set failed its checks: %v", ph.notes)
	}
	o := w.last
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"linpacksim ACMLG+both vs monolithic", o.fig9["both"], cell["monolithic"]},
		{"graph-d0", o.graphD0, cell["graph-d0"]},
		{"graph-d1+hyb", o.graphD1Hyb, cell["graph-d1+hyb"]},
		{"serve peak", o.servePeak, srv.PeakThroughput},
		{"serve p99 at 2000", o.serveP99[2000], p99[2000]},
		{"serve p99 at 8000", o.serveP99[8000], p99[8000]},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) || c.want == 0 {
			t.Errorf("%s: benchmark %v, committed %v", c.name, c.got, c.want)
		}
	}
	// The headline values as rounded in the paper reproduction's records.
	for _, c := range []struct {
		got, want, unit float64
	}{
		{o.fig9["both"], 202.94, 0.01}, {o.graphD1Hyb, 203.53, 0.01}, {o.servePeak, 5745.4, 0.1},
	} {
		if math.Abs(c.got-c.want) > c.unit/2 {
			t.Errorf("virtual value %v does not round to %v", c.got, c.want)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the metric
// tables the benchmark reports from in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &spec)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !equalJSON(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if !equalJSON(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the endToEnd table")
	}
	if !equalJSON(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the perLayer table")
	}
}

func equalJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(x) == string(y)
}
