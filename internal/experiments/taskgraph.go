package experiments

import (
	"context"
	"fmt"

	"tianhe/internal/element"
	"tianhe/internal/linpacksim"
	"tianhe/internal/stencil"
	"tianhe/internal/sweep"
	"tianhe/internal/taskgraph"
	"tianhe/internal/telemetry"
)

// StencilBlockZs is the slab-depth sweep of the stencil decomposition study:
// how coarse the Z-decomposition can get before the per-task working set
// stops fitting device memory, and how fine before scheduling overheads and
// halo re-reads erode the wavefront.
var StencilBlockZs = []int{8, 16, 32, 48}

// StencilGrid is the Fig-8-class grid the sweep schedules: just under half a
// billion points, virtual (placement and transfers only).
var StencilGrid = stencil.Config{NX: 768, NY: 768, NZ: 768, Steps: 4}

// StencilCell is one BlockZ point of StencilSweep.
type StencilCell struct {
	BlockZ int
	// Blocks and Tasks describe the decomposition (Tasks = Steps x Blocks).
	Blocks, Tasks int
	// Seconds and GFLOPS are the scheduled makespan and achieved rate.
	Seconds float64
	GFLOPS  float64
	// GPUShare is the fraction of slab tasks the affinity scheduler placed
	// on the GPU.
	GPUShare float64
	// BytesIn counts host-to-device traffic; BytesSkipped the reads served
	// from device residency (the scheduler's locality win).
	BytesIn, BytesSkipped int64
}

// StencilSweep schedules the Fig-8-class Jacobi sweep at each slab depth and
// reports how the decomposition granularity moves makespan, placement and
// traffic. The points are independent virtual runs on par workers; output is
// byte-identical for every par.
func StencilSweep(seed uint64, blockZs []int, tel *telemetry.Telemetry, par int) []StencilCell {
	if blockZs == nil {
		blockZs = StencilBlockZs
	}
	return sweep.MapTel(context.Background(), par, tel, blockZs,
		func(_ int, bz int, tel *telemetry.Telemetry) StencilCell {
			cfg := StencilGrid
			cfg.BlockZ = bz
			cfg.Seed = seed
			s := stencil.NewVirtual(cfg)
			el := element.New(element.Config{Seed: seed, Virtual: true})
			rep, err := s.Run(el, taskgraph.Options{Telemetry: tel})
			if err != nil {
				panic("experiments: virtual stencil sweep failed: " + err.Error())
			}
			return StencilCell{
				BlockZ:       bz,
				Blocks:       s.Config().Blocks(),
				Tasks:        rep.Tasks,
				Seconds:      rep.Seconds(),
				GFLOPS:       rep.GFLOPS(),
				GPUShare:     float64(rep.TasksGPU) / float64(rep.Tasks),
				BytesIn:      rep.BytesIn,
				BytesSkipped: rep.BytesSkipped,
			}
		})
}

// GraphLUDepths is the look-ahead sweep of the graph-LU study.
var GraphLUDepths = []int{0, 1, 2}

// GraphLUCell is one scheduling-mode point of GraphLU.
type GraphLUCell struct {
	// Mode names the point: "monolithic" for the bulk-synchronous iteration
	// loop, "graph-d<k>" for the dataflow runtime at look-ahead depth k,
	// "graph-d<k>+hyb" with the hybrid codelet variant armed.
	Mode string `json:"mode"`
	// Lookahead is the depth (-1 for the monolithic baseline).
	Lookahead int `json:"lookahead"`
	// Hybrid marks that update codelets carried the split CPU+GPU body.
	Hybrid  bool    `json:"hybrid"`
	Seconds float64 `json:"seconds"`
	GFLOPS  float64 `json:"gflops"`
	// GainPct is the GFLOPS gain over the monolithic baseline.
	GainPct float64 `json:"gain_pct"`
}

// GraphLU compares the monolithic Linpack iteration against the same
// factorization expressed as a task graph at each look-ahead depth, at one
// problem size. The modes are independent simulated runs on par workers;
// output is byte-identical for every par.
func GraphLU(seed uint64, n int, depths []int, tel *telemetry.Telemetry, par int) []GraphLUCell {
	if n <= 0 {
		n = 46080
	}
	if depths == nil {
		depths = GraphLUDepths
	}
	type point struct {
		mode      string
		lookahead int
		hybrid    bool
	}
	pts := []point{{mode: "monolithic", lookahead: -1}}
	for _, d := range depths {
		pts = append(pts, point{mode: fmt.Sprintf("graph-d%d", d), lookahead: d})
	}
	// The hybrid row: depth-1 look-ahead with the split CPU+GPU update body,
	// the variant that closes the graph runtime's gap to the monolithic loop.
	pts = append(pts, point{mode: "graph-d1+hyb", lookahead: 1, hybrid: true})
	cells := sweep.MapTel(context.Background(), par, tel, pts,
		func(_ int, p point, tel *telemetry.Telemetry) GraphLUCell {
			cfg := linpacksim.Config{
				N: n, NB: 1216, Variant: element.ACMLGBoth, Seed: seed,
				Telemetry: tel,
			}
			if p.lookahead >= 0 {
				cfg.Graph = true
				cfg.Lookahead = p.lookahead
				cfg.GraphHybrid = p.hybrid
			}
			res := linpacksim.Run(cfg)
			return GraphLUCell{
				Mode:      p.mode,
				Lookahead: p.lookahead,
				Hybrid:    p.hybrid,
				Seconds:   res.Seconds,
				GFLOPS:    res.GFLOPS,
			}
		})
	base := cells[0].GFLOPS
	for i := range cells {
		cells[i].GainPct = 100 * (cells[i].GFLOPS - base) / base
	}
	return cells
}

// GraphLUBenchSchema versions the BENCH_graphlu.json artifact.
const GraphLUBenchSchema = "tianhe/graphlu-bench/v1"

// GraphLUBenchResult is the committed graph-LU perf-trajectory artifact
// (BENCH_graphlu.json): the monolithic baseline against the dataflow runtime
// at each look-ahead depth plus the hybrid-variant row, at the Fig-6 problem
// size. Every number is virtual-time and regenerates bit-identically from
// the seed, so any drift between a fresh run and the committed baseline is a
// real code change, not measurement noise — the same perf-trajectory pattern
// BENCH_serve.json establishes for the solver service.
type GraphLUBenchResult struct {
	Schema string        `json:"schema"`
	Seed   uint64        `json:"seed"`
	N      int           `json:"n"`
	Cells  []GraphLUCell `json:"cells"`
}

// GraphLUBench runs the full monolithic-vs-graph comparison at order n
// (<= 0 selects the Fig-6 size GraphLU defaults to).
func GraphLUBench(seed uint64, n, par int) GraphLUBenchResult {
	if n <= 0 {
		n = 46080
	}
	cells := GraphLU(seed, n, nil, telemetry.Disabled(), par)
	return GraphLUBenchResult{Schema: GraphLUBenchSchema, Seed: seed, N: n, Cells: cells}
}
