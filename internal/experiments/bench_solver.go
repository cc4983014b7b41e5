package experiments

import (
	"fmt"
	"time"

	"tap25d/internal/material"
	"tap25d/internal/obs"
	"tap25d/internal/placer"
	"tap25d/internal/systems"
	"tap25d/internal/thermal"
)

// solverWarmSolves is how many perturbed-placement solves the per-grid timing
// averages over after the untimed setup solve.
const solverWarmSolves = 3

// BenchmarkSolverScaling measures the two CG preconditioners across grid
// sizes on the CPU-DRAM case study (its published original placement makes
// the scenario deterministic with no placer in the loop). For every grid and
// preconditioner — jacobi and mg, forced at every grid regardless of which
// one the model would select by itself — it builds one persistent model, pays
// the cold first solve untimed (matrix assembly, and for mg the hierarchy
// coarsening), then times solverWarmSolves solves under small deterministic
// placement perturbations: the regime every placement flow runs in, where
// thousands of delta-assembled solves amortize the one-time setup. The cold
// first solve is still reported per preconditioner (`*_cold_ms`) so the
// amortization claim is checkable. The scale-free headline entries are the mg
// iteration growth from the smallest to the largest grid (near-constant is
// the point of the hierarchy) and the mg-vs-jacobi per-solve speedup at the
// largest grid.
//
// The grids slice must be ascending; BENCH_SOLVER.json commits the 64/128/256
// paper-fidelity run and CI regenerates the same grids on shared runners,
// gating only the scale-free ratio entries (see .github/workflows/ci.yml).
func BenchmarkSolverScaling(grids []int) (*Report, []obs.BenchEntry, error) {
	if len(grids) < 2 {
		return nil, nil, fmt.Errorf("solver bench needs at least 2 grid sizes, got %v", grids)
	}
	sys := systems.CPUDRAM()
	p := systems.CPUDRAMOriginal()
	sources := placer.Sources(sys, p)
	start := time.Now()

	var entries []obs.BenchEntry
	var rows []Row
	type cell struct {
		iters float64
		ms    float64
	}
	results := map[int]map[string]cell{}
	for _, g := range grids {
		results[g] = map[string]cell{}
		row := Row{Label: fmt.Sprintf("grid %d", g), Extra: map[string]float64{}}
		for _, pre := range []string{"jacobi", "mg"} {
			stack := material.DefaultStackFor(sys.InterposerW, sys.InterposerH)
			model, err := thermal.NewModel(sys.InterposerW, sys.InterposerH,
				thermal.Options{Grid: g, Stack: &stack, Precond: pre})
			if err != nil {
				return nil, nil, err
			}
			t0 := time.Now()
			if _, err := model.Solve(sources); err != nil {
				return nil, nil, fmt.Errorf("grid %d %s cold: %w", g, pre, err)
			}
			coldMS := float64(time.Since(t0).Microseconds()) / 1000
			var iters int
			t0 = time.Now()
			for k := 1; k <= solverWarmSolves; k++ {
				res, err := model.Solve(perturbSources(sources, sys.InterposerW, sys.InterposerH, k))
				if err != nil {
					return nil, nil, fmt.Errorf("grid %d %s warm %d: %w", g, pre, k, err)
				}
				iters += res.Iterations
			}
			ms := float64(time.Since(t0).Microseconds()) / 1000 / solverWarmSolves
			meanIters := float64(iters) / solverWarmSolves
			results[g][pre] = cell{iters: meanIters, ms: ms}
			entries = append(entries,
				obs.BenchEntry{Name: fmt.Sprintf("tap25d/solver/g%d/%s_iters", g, pre), Unit: "count", Value: meanIters},
				obs.BenchEntry{Name: fmt.Sprintf("tap25d/solver/g%d/%s_ms", g, pre), Unit: "ms", Value: ms},
				obs.BenchEntry{Name: fmt.Sprintf("tap25d/solver/g%d/%s_cold_ms", g, pre), Unit: "ms", Value: coldMS},
			)
			row.Extra[pre+"_iters"] = meanIters
			row.Extra[pre+"_ms"] = ms
			row.Extra[pre+"_cold_ms"] = coldMS
		}
		rows = append(rows, row)
	}

	gLo, gHi := grids[0], grids[len(grids)-1]
	iterGrowth := results[gHi]["mg"].iters / results[gLo]["mg"].iters
	mgSpeedup := results[gHi]["jacobi"].ms / results[gHi]["mg"].ms
	entries = append(entries,
		obs.BenchEntry{Name: fmt.Sprintf("tap25d/solver/mg_iter_growth_%d_vs_%d", gHi, gLo), Unit: "x", Value: iterGrowth},
		obs.BenchEntry{Name: fmt.Sprintf("tap25d/solver/g%d/mg_vs_jacobi_speedup", gHi), Unit: "x", Value: mgSpeedup},
	)

	rep := &Report{
		ID:    "BENCH-SOLVER",
		Title: "CG preconditioner scaling (jacobi/mg)",
		Rows:  rows,
		Notes: []string{
			fmt.Sprintf("mg iterations grew %.2fx from grid %d to %d (jacobi: %.2fx); mg %.2fx faster than jacobi at grid %d (per perturbed-placement solve, setup amortized)",
				iterGrowth, gLo, gHi,
				results[gHi]["jacobi"].iters/results[gLo]["jacobi"].iters, mgSpeedup, gHi),
		},
		Elapsed: time.Since(start),
	}
	return rep, entries, nil
}

// perturbSources moves ONE source's footprint a small deterministic step
// toward the interposer center — 0.5%·k of its center offset, always in
// bounds — mirroring an anneal step, which moves a single chiplet per
// evaluation. That is the regime the per-solve timing represents: a localized
// footprint change, incremental delta assembly, and (for mg) preconditioning
// with the hierarchy of a slightly stale matrix.
func perturbSources(sources []thermal.Source, w, h float64, k int) []thermal.Source {
	out := make([]thermal.Source, len(sources))
	copy(out, sources)
	i := k % len(out)
	f := 0.005 * float64(k)
	c := out[i].Rect.Center
	c.X += (w/2 - c.X) * f
	c.Y += (h/2 - c.Y) * f
	out[i].Rect.Center = c
	return out
}
