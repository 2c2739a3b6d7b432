package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"tianhe/internal/element"
	"tianhe/internal/matrix"
)

var update = flag.Bool("update", false, "rewrite the distributed solver goldens")

// dist1DGolden renders, for every element variant, the exact bits of the
// 1-D solver's virtual makespan and an FNV-1a hash of its solution bits, at
// a default-device shape and at a shrunken-device shape that forces
// multi-task pipelined plans inside every update.
func dist1DGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, shape := range []DistConfig{
		{N: 256, NB: 32, Ranks: 4, Seed: 5},
		{N: 256, NB: 64, Ranks: 2, Seed: 11, GPUMem: 2 << 20, GPUTexture: 64},
	} {
		for _, v := range element.Variants {
			cfg := shape
			cfg.Variant = v
			res, err := SolveDistributed(cfg)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			fmt.Fprintf(&buf, "N=%d NB=%d ranks=%d gpumem=%d texture=%d %-14s seconds=%016x x=%016x\n",
				cfg.N, cfg.NB, cfg.Ranks, cfg.GPUMem, cfg.GPUTexture, v,
				math.Float64bits(float64(res.Seconds)), hashBits(res.X))
		}
	}
	return buf.Bytes()
}

// hashBits is the FNV-1a hash of the IEEE-754 bits of xs.
func hashBits(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestDist1DGolden pins the 1-D solver bit for bit: any change to its
// arithmetic or to its virtual-time booking shows up as a diff. Regenerate
// deliberately with -update.
func TestDist1DGolden(t *testing.T) {
	got := dist1DGolden(t)
	const path = "testdata/dist1d.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("1-D solver drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// A healthy elastic run computes exactly what the plain 1-D solver
// computes: same layout, same per-column arithmetic, same kernel. Parity
// and heartbeats only add traffic and time, never change a bit of X.
func TestElasticMatchesDistributed(t *testing.T) {
	for _, c := range []struct {
		n, nb, ranks int
		seed         uint64
	}{
		{256, 32, 4, 42}, {320, 32, 5, 7}, {256, 64, 2, 3},
	} {
		dist, err := SolveDistributed(DistConfig{N: c.n, NB: c.nb, Ranks: c.ranks, Seed: c.seed, Variant: element.ACMLGBoth})
		if err != nil {
			t.Fatal(err)
		}
		for _, noParity := range []bool{false, true} {
			el, err := SolveElastic(ElasticConfig{N: c.n, NB: c.nb, Ranks: c.ranks, Seed: c.seed, DisableParity: noParity})
			if err != nil {
				t.Fatal(err)
			}
			if d := matrix.VecMaxDiff(el.X, dist.X); d != 0 {
				t.Fatalf("N=%d NB=%d ranks=%d parity-off=%v: elastic X differs from SolveDistributed by %g",
					c.n, c.nb, c.ranks, noParity, d)
			}
		}
	}
}
