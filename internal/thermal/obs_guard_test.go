package thermal

import (
	"context"
	"testing"

	"tap25d/internal/geom"
	"tap25d/internal/material"
	"tap25d/internal/obs"
)

// TestDisabledObsOverheadGuard bounds the cost of disabled observability on
// the hottest path in the repo. When no Observer is attached, each solve pays
// only the nil-path instrumentation sequence below (a handful of pointer
// tests); this guard measures that sequence and the cheapest solve regime of
// BenchmarkThermalSolveIncremental (warm re-solve: no assembly, immediate
// convergence) and fails if instrumentation exceeds 1% of a solve. The nil
// path must also stay allocation-free.
func TestDisabledObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks the solve path")
	}

	// The exact per-solve nil-path sequence SolveContext executes when
	// m.obs == nil: solve span, assemble child span with a label rewrite,
	// a multigrid model's hierarchy refresh child, the Enabled gate, and the
	// CG trace teardown.
	nilPath := func() {
		var o *obs.Observer
		sp := o.StartSpanCtx(context.Background(), obs.PhaseThermalSolve, "")
		asp := sp.Child(obs.PhaseThermalAssemble, "delta")
		asp.SetLabel("skip")
		asp.End()
		msp := sp.Child(obs.PhaseMGRefresh, "refresh")
		msp.End()
		if o.Enabled() {
			t.Fatal("nil observer reports enabled")
		}
		var trace *obs.CGTrace
		o.EndCG(trace, 0, true)
		sp.End()
	}
	if allocs := testing.AllocsPerRun(1000, nilPath); allocs != 0 {
		t.Fatalf("disabled-observability path allocates %.1f objects per solve", allocs)
	}

	instr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilPath()
		}
	})

	src := []Source{
		{Rect: geom.Rect{Center: geom.Point{X: 12, Y: 12}, W: 8, H: 6}, Power: 90},
		{Rect: geom.Rect{Center: geom.Point{X: 30, Y: 14}, W: 5, H: 9}, Power: 140},
		{Rect: geom.Rect{Center: geom.Point{X: 15, Y: 32}, W: 7, H: 7}, Power: 60},
	}
	m := newTestModel(t, 24)
	if _, err := m.Solve(src); err != nil {
		t.Fatal(err)
	}
	solve := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Solve(src); err != nil {
				b.Fatal(err)
			}
		}
	})

	instrNS := float64(instr.NsPerOp())
	solveNS := float64(solve.NsPerOp())
	if solveNS <= 0 {
		t.Fatalf("degenerate solve timing: %v ns/op", solveNS)
	}
	ratio := instrNS / solveNS
	t.Logf("instrumentation %.1f ns/solve, warm solve %.0f ns, overhead %.4f%%",
		instrNS, solveNS, 100*ratio)
	if ratio > 0.01 {
		t.Fatalf("disabled observability costs %.2f%% of a warm solve (limit 1%%): %v ns vs %v ns",
			100*ratio, instrNS, solveNS)
	}
}

// TestMGRefreshSpans: a multigrid model builds its hierarchy, and refreshes
// it after each value-changing assembly, inside an mg_refresh child of the
// solve's thermal_solve span, so a job trace shows what a fresh hierarchy
// costs. A grid-64 model's first two value-changing solves record one
// build span and one refresh span.
func TestMGRefreshSpans(t *testing.T) {
	o := obs.New()
	pc := precondCases()[1] // cpudram
	stack := material.DefaultStackFor(pc.w, pc.h)
	m, err := NewModel(pc.w, pc.h, Options{Grid: 64, Stack: &stack, Precond: precondMG, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	moved := append([]Source(nil), pc.sources...)
	moved[4].Rect.Center = geom.Point{X: 6.5, Y: 4.5} // DRAM0 away from its corner
	for _, src := range [][]Source{pc.sources, moved} {
		if _, err := m.Solve(src); err != nil {
			t.Fatal(err)
		}
	}
	var labels []string
	for _, rec := range o.RecentSpans() {
		if rec.Phase != obs.PhaseMGRefresh.String() {
			continue
		}
		if rec.Parent != obs.PhaseThermalSolve.String() {
			t.Errorf("mg_refresh span under %q, want thermal_solve", rec.Parent)
		}
		labels = append(labels, rec.Label)
	}
	if len(labels) != 2 || labels[0] != "build" || labels[1] != "refresh" {
		t.Errorf("mg_refresh spans labeled %q, want [build refresh]", labels)
	}
}
