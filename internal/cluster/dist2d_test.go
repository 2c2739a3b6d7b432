package cluster

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"tianhe/internal/element"
)

// dist2DGolden renders, for every element variant, the exact bits of the
// 2-D solver's virtual makespan and an FNV-1a hash of its solution bits,
// over grid shapes that cover square, tall, wide and single-rank grids,
// look-ahead on and off, and a shrunken device that forces multi-task
// pipelined plans inside every update.
func dist2DGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, shape := range []Dist2DConfig{
		{N: 192, NB: 32, P: 2, Q: 2, Seed: 5},
		{N: 192, NB: 32, P: 2, Q: 2, Seed: 5, Lookahead: true},
		{N: 320, NB: 32, P: 2, Q: 3, Seed: 9, Lookahead: true},
		{N: 256, NB: 32, P: 3, Q: 2, Seed: 13},
		{N: 256, NB: 64, P: 1, Q: 3, Seed: 11, GPUMem: 2 << 20, GPUTexture: 64},
		{N: 192, NB: 32, P: 1, Q: 1, Seed: 1},
	} {
		for _, v := range element.Variants {
			cfg := shape
			cfg.Variant = v
			res, err := SolveDistributed2D(cfg)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			fmt.Fprintf(&buf, "N=%d NB=%d grid=%dx%d lookahead=%-5v gpumem=%d texture=%d %-14s seconds=%016x x=%016x\n",
				cfg.N, cfg.NB, cfg.P, cfg.Q, cfg.Lookahead, cfg.GPUMem, cfg.GPUTexture, v,
				math.Float64bits(float64(res.Seconds)), hashBits(res.X))
		}
	}
	return buf.Bytes()
}

// TestDist2DGolden pins the 2-D solver bit for bit: any change to its
// arithmetic, its message pattern or its virtual-time booking shows up as
// a diff. Regenerate deliberately with -update.
func TestDist2DGolden(t *testing.T) {
	got := dist2DGolden(t)
	const path = "testdata/dist2d.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("2-D solver drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
