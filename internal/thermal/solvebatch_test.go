package thermal

import (
	"context"
	"math"
	"strings"
	"testing"

	"tap25d/internal/geom"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
)

// batchSpecs returns b power scenarios of the cpudram case study: identical
// footprints, scenario c scaled by a deterministic factor.
func batchSpecs(b int) [][]Source {
	base := precondCases()[1].sources
	specs := make([][]Source, b)
	for c := range specs {
		spec := make([]Source, len(base))
		copy(spec, base)
		for k := range spec {
			spec[k].Power *= 0.5 + 0.25*float64(c)
		}
		specs[c] = spec
	}
	return specs
}

func batchModel(t *testing.T, grid int, precond string, ctr *metrics.Counters) *Model {
	t.Helper()
	pc := precondCases()[1]
	stack := material.DefaultStackFor(pc.w, pc.h)
	m, err := NewModel(pc.w, pc.h, Options{Grid: grid, Stack: &stack, Precond: precond, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSolveBatchBitIdenticalToColdSolves: every batch column must carry
// exactly the field a cold-start Solve of that scenario on a fresh model
// would produce — same bits, same iteration count — for every preconditioner
// the batch dispatches to.
func TestSolveBatchBitIdenticalToColdSolves(t *testing.T) {
	for _, pre := range []string{"jacobi", "mg"} {
		t.Run(pre, func(t *testing.T) {
			specs := batchSpecs(3)
			m := batchModel(t, 48, pre, nil)
			got, err := m.SolveBatch(context.Background(), specs)
			if err != nil {
				t.Fatal(err)
			}
			for c, spec := range specs {
				want, err := batchModel(t, 48, pre, nil).Solve(spec)
				if err != nil {
					t.Fatal(err)
				}
				if got[c].Iterations != want.Iterations {
					t.Errorf("column %d: %d iterations, solo solve %d", c, got[c].Iterations, want.Iterations)
				}
				for i := range want.ChipTempC {
					if math.Float64bits(got[c].ChipTempC[i]) != math.Float64bits(want.ChipTempC[i]) {
						t.Fatalf("column %d cell %d: %v vs %v", c, i, got[c].ChipTempC[i], want.ChipTempC[i])
					}
				}
				if got[c].Recovery != nil {
					t.Errorf("column %d carries recovery info", c)
				}
			}
		})
	}
}

// TestSolveBatchLeavesWarmStateUntouched: a Solve after a SolveBatch must
// behave exactly as if the batch had not happened.
func TestSolveBatchLeavesWarmStateUntouched(t *testing.T) {
	specs := batchSpecs(3)
	plain := batchModel(t, 48, "", nil)
	if _, err := plain.Solve(specs[0]); err != nil {
		t.Fatal(err)
	}
	batched := batchModel(t, 48, "", nil)
	if _, err := batched.Solve(specs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := batched.SolveBatch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	want, err := plain.Solve(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := batched.Solve(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("post-batch solve took %d iterations, undisturbed model %d", got.Iterations, want.Iterations)
	}
	for i := range want.ChipTempC {
		if math.Float64bits(got.ChipTempC[i]) != math.Float64bits(want.ChipTempC[i]) {
			t.Fatalf("cell %d: %v vs %v", i, got.ChipTempC[i], want.ChipTempC[i])
		}
	}
}

func TestSolveBatchValidation(t *testing.T) {
	m := batchModel(t, 32, "", nil)
	ctx := context.Background()

	if res, err := m.SolveBatch(ctx, nil); err != nil || res != nil {
		t.Fatalf("empty batch: %v, %v", res, err)
	}

	specs := batchSpecs(2)
	specs[1] = specs[1][:len(specs[1])-1]
	if _, err := m.SolveBatch(ctx, specs); err == nil || !strings.Contains(err.Error(), "spec 1") {
		t.Fatalf("count mismatch not reported: %v", err)
	}

	specs = batchSpecs(2)
	specs[1][2].Rect.Center.X += 0.5
	if _, err := m.SolveBatch(ctx, specs); err == nil ||
		!strings.Contains(err.Error(), "spec 1 source 2") {
		t.Fatalf("footprint mismatch not reported: %v", err)
	}

	specs = batchSpecs(2)
	specs[1][0].Power = -1
	if _, err := m.SolveBatch(ctx, specs); err == nil {
		t.Fatal("negative power accepted")
	}
}

// TestSolveBatchCounters: a batch counts like independent solves, under one
// hierarchy setup. PCG preconditions once before its first iteration and
// once after every iteration but the last, so a column that converges after
// k iterations runs exactly k V-cycles.
func TestSolveBatchCounters(t *testing.T) {
	const b = 8
	var ctr metrics.Counters
	m := batchModel(t, 64, "mg", &ctr)
	results, err := m.SolveBatch(context.Background(), batchSpecs(b))
	if err != nil {
		t.Fatal(err)
	}
	if ctr.ThermalSolves != b {
		t.Errorf("ThermalSolves = %d, want %d", ctr.ThermalSolves, b)
	}
	var iters int64
	for _, r := range results {
		iters += int64(r.Iterations)
	}
	if ctr.CGIterations != iters {
		t.Errorf("CGIterations = %d, want %d", ctr.CGIterations, iters)
	}
	if ctr.MGSetups != 1 {
		t.Errorf("MGSetups = %d, want 1 (one hierarchy for the whole batch)", ctr.MGSetups)
	}
	if ctr.MGCycles != iters {
		t.Errorf("MGCycles = %d, want %d (one V-cycle per CG iteration)", ctr.MGCycles, iters)
	}
}

func TestSolveBatchCanceled(t *testing.T) {
	m := batchModel(t, 48, "", nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.SolveBatch(ctx, batchSpecs(2)); err == nil {
		t.Fatal("canceled batch succeeded")
	}
}

// TestSolveBatchPowerVector: the batch's right-hand side assembly must
// replicate the plain path bit for bit even for partially overlapping and
// off-grid footprints.
func TestSolveBatchPowerVector(t *testing.T) {
	m := batchModel(t, 32, "", nil)
	src := []Source{
		{Rect: geom.Rect{Center: geom.Point{X: 10.3, Y: 11.7}, W: 7.1, H: 6.3}, Power: 55},
		{Rect: geom.Rect{Center: geom.Point{X: 12.9, Y: 13.1}, W: 5.5, H: 5.5}, Power: 30},
	}
	want, err := batchModel(t, 32, "", nil).Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.SolveBatch(context.Background(), [][]Source{src})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ChipTempC {
		if math.Float64bits(got[0].ChipTempC[i]) != math.Float64bits(want.ChipTempC[i]) {
			t.Fatalf("cell %d: %v vs %v", i, got[0].ChipTempC[i], want.ChipTempC[i])
		}
	}
}
