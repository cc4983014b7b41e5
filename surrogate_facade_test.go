// Facade-level contract of the two-fidelity evaluator: with the surrogate
// off (the library default, and the CLIs' -no-surrogate), every result is
// byte-identical to the exact-only annealer this repo shipped before the
// surrogate existed; with it on, the Result carries the prescreen statistics.
package tap25d_test

import (
	"testing"

	"tap25d"
	"tap25d/internal/experiments"
)

// exactOnlyGolden pins the E1 outcome at the facade test fidelity (grid 16,
// 60 steps, 1 run, 2000 compact steps, seed 1), captured from the exact-only
// annealer before the surrogate was introduced and re-pinned once when grid
// 16 moved from Jacobi to the multigrid preconditioner (the same fields to
// the CG tolerance, so the anneal's accept decisions can differ). The values
// are asserted bit-exactly: the surrogate must stay completely out of the
// default path — no extra RNG draws, no reordered evaluations.
var exactOnlyGolden = []struct {
	label        string
	tempC        float64
	wirelengthMM float64
}{
	{"Compact-2.5D (a)", 92.285397303442977, 121036.79999999997},
	{"TAP-2.5D repeaterless (b)", 90.563576886626407, 159744},
	{"TAP-2.5D gas-station (c)", 90.340519666126056, 161792},
}

func TestNoSurrogateByteIdenticalToSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("thermal solves in -short mode")
	}
	cfg := experiments.Config{ThermalGrid: 16, Steps: 60, Runs: 1, CompactSteps: 2000, Seed: 1}
	rep, err := experiments.Run("E1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(exactOnlyGolden) {
		t.Fatalf("E1 produced %d rows, want %d", len(rep.Rows), len(exactOnlyGolden))
	}
	for i, want := range exactOnlyGolden {
		got := rep.Rows[i]
		if got.Label != want.label {
			t.Errorf("row %d label %q, want %q", i, got.Label, want.label)
		}
		if got.TempC != want.tempC || got.WirelengthMM != want.wirelengthMM {
			t.Errorf("%s: got %.15g C / %.15g mm, want bit-exact %.15g C / %.15g mm",
				want.label, got.TempC, got.WirelengthMM, want.tempC, want.wirelengthMM)
		}
	}
	if rep.Counters.SurrogatePrescreens != 0 {
		t.Errorf("exact-only run recorded %d surrogate prescreens", rep.Counters.SurrogatePrescreens)
	}
}

func TestSurrogateFacadeFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("thermal solves in -short mode")
	}
	sys, err := tap25d.BuiltinSystem("multigpu")
	if err != nil {
		t.Fatal(err)
	}
	opt := tap25d.Options{ThermalGrid: 16, Steps: 60, CompactSteps: 2000, Seed: 1}

	base, err := tap25d.Place(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Surrogate != nil {
		t.Fatal("surrogate statistics reported with Options.Surrogate off")
	}

	opt.Surrogate = true
	opt.SurrogateConfig = &tap25d.SurrogateConfig{Window: 16, MinFit: 4, AuditEvery: 4}
	res, err := tap25d.Place(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surrogate == nil {
		t.Fatal("Result.Surrogate is nil with Options.Surrogate on")
	}
	if res.Surrogate.Prescreens == 0 {
		t.Fatal("surrogate never prescreened")
	}
	if res.Metrics.SurrogatePrescreens != res.Surrogate.Prescreens {
		t.Fatalf("counters report %d prescreens, stats %d",
			res.Metrics.SurrogatePrescreens, res.Surrogate.Prescreens)
	}
	if !res.Feasible && res.PeakC > base.PeakC+5 {
		t.Fatalf("surrogate run degraded quality badly: %.2f C vs exact %.2f C", res.PeakC, base.PeakC)
	}
}
