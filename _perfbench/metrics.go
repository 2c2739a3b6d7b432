package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The tables below must match
// BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON keeps them in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is reported by every workload's untraced run. What one "op" is
// depends on the workload: a residual-checked solve (lu-node), a round of the
// four distributed solves (lu-dist), the full paper simulation set
// (sim-paper), or an HTTP request (serve-live).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer is reported by every workload's traced run; a layer the workload
// bypasses reads 0, which is the prediction for it.
var perLayer = []metricDef{
	{"trace.overhead_frac", "ratio", "lower"},

	{"blas.gemm_s", "s", "lower"},
	{"blas.gemm_calls", "count", "lower"},
	{"blas.gemm_gflops", "GFLOP/s", "higher"},
	{"blas.gemm_flop_per_byte", "flop/B", "higher"},
	{"blas.gemm_gflops_1t", "GFLOP/s", "higher"},

	{"hpl.generate_s", "s", "lower"},
	{"hpl.dgetrf_s", "s", "lower"},
	{"hpl.dgetrf_self_s", "s", "lower"},
	{"hpl.solve_s", "s", "lower"},
	{"hpl.residual_s", "s", "lower"},
	{"hpl.residual_max", "ratio", "lower"},
	{"hpl.alloc_mb", "MB", "lower"},
	{"hpl.solve_gflops", "GFLOP/s", "higher"},

	{"cluster.solve1d_s", "s", "lower"},
	{"cluster.solve2d_s", "s", "lower"},
	{"cluster.elastic_s", "s", "lower"},
	{"cluster.elastic_death_s", "s", "lower"},
	{"cluster.solve1d_vgflops", "vGFLOP/s", "higher"},
	{"cluster.solve2d_vgflops", "vGFLOP/s", "higher"},
	{"cluster.elastic_vgflops", "vGFLOP/s", "higher"},
	{"cluster.alloc_mb", "MB", "lower"},
	{"cluster.solve_gflops", "GFLOP/s", "higher"},

	{"recover.host_s", "s", "lower"},
	{"recover.recovery_vs", "vs", "lower"},
	{"recover.parity_mb", "MB", "lower"},
	{"recover.epochs", "count", "lower"},

	{"hybrid.gemm_s", "s", "lower"},
	{"blas.gemm_same_shape_s", "s", "lower"},
	{"hybrid.overhead_frac", "ratio", "lower"},

	{"linpacksim.run_s.cpu", "s", "lower"},
	{"linpacksim.run_s.acmlg", "s", "lower"},
	{"linpacksim.run_s.adaptive", "s", "lower"},
	{"linpacksim.run_s.pipe", "s", "lower"},
	{"linpacksim.run_s.both", "s", "lower"},
	{"linpacksim.vgflops.cpu", "vGFLOP/s", "higher"},
	{"linpacksim.vgflops.acmlg", "vGFLOP/s", "higher"},
	{"linpacksim.vgflops.adaptive", "vGFLOP/s", "higher"},
	{"linpacksim.vgflops.pipe", "vGFLOP/s", "higher"},
	{"linpacksim.vgflops.both", "vGFLOP/s", "higher"},

	{"taskgraph.run_s.d0", "s", "lower"},
	{"taskgraph.run_s.d1-hyb", "s", "lower"},
	{"taskgraph.vgflops.d0", "vGFLOP/s", "higher"},
	{"taskgraph.vgflops.d1-hyb", "vGFLOP/s", "higher"},

	{"cluster.scale_s.1cab", "s", "lower"},
	{"cluster.scale_s.80cab", "s", "lower"},
	{"cluster.scale_vtflops.1cab", "vTFLOP/s", "higher"},
	{"cluster.scale_vtflops.80cab", "vTFLOP/s", "higher"},
	{"cluster.elasticsim_s", "s", "lower"},
	{"cluster.elasticsim_overhead_pct", "%", "lower"},
	{"cluster.elasticsim_recovery_vs", "vs", "lower"},
	{"sweep.speedup", "ratio", "higher"},
	{"sim.regen_s", "s", "lower"},

	{"serve.replay_s", "s", "lower"},
	{"serve.vjobs_per_s", "vjobs/s", "higher"},
	{"serve.vp99_ms.2000", "vms", "lower"},
	{"serve.vp99_ms.8000", "vms", "lower"},
	{"serve.mean_batch_jobs", "jobs", "higher"},
	{"serve.lostgpu_vjobs_per_s", "vjobs/s", "higher"},

	{"tianhed.http_ms", "ms", "lower"},
	{"tianhed.latency_p99_ms", "ms", "lower"},
	{"tianhed.open_samples", "count", "higher"},
	{"tianhed.closed_req_per_s", "req/s", "higher"},
	{"serve.vlatency_p99_ms", "vms", "lower"},
	{"serve.live_batch_jobs", "jobs", "higher"},
	{"tianhed.metrics_scrape_ms", "ms", "lower"},
	{"tianhed.rss_kb_per_kreq", "KB", "lower"},
	{"loadgen.lateness_p99_ms", "ms", "lower"},
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill renders vals against a table: every name in the table is present
// (missing ones read 0), and a value the table does not name is an error.
func fill(table []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(table))
	for _, d := range table {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the table", name)
		}
	}
	return out, nil
}

// quantile returns the q quantile of xs by linear interpolation between
// order statistics; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// procStatusKB reads a kB field (VmRSS, VmHWM) of /proc/<pid>/status; pid
// "self" reads this process.
func procStatusKB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB"))
			return strconv.ParseFloat(kb, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found in /proc/%s/status", field, pid)
}

// selfPeakMB is this process's peak RSS in MB.
func selfPeakMB() (float64, error) {
	kb, err := procStatusKB("self", "VmHWM")
	return kb / 1024, err
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
