package thermal_test

import (
	"math"
	"testing"

	"tap25d"
	"tap25d/internal/thermal"
)

// TestScenariosAfterPlaceBuildNoModel: a corner screen right after Place,
// at the same grid, takes the model Place's final evaluation released and
// builds none; its 1.0 corner is the flow's own peak, bit for bit.
func TestScenariosAfterPlaceBuildNoModel(t *testing.T) {
	sys, err := tap25d.BuiltinSystem("multigpu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tap25d.Place(sys, tap25d.Options{ThermalGrid: 24, Steps: 30, Runs: 2, CompactSteps: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := thermal.PoolCounts()
	fields, err := tap25d.EvaluateScenarios(sys, res.Placement, []float64{0.5, 1, 1.5}, tap25d.Options{ThermalGrid: 24})
	if err != nil {
		t.Fatal(err)
	}
	h, m := thermal.PoolCounts()
	if h != hits+1 || m != misses {
		t.Errorf("corner screen: %d pool hits and %d misses, want 1 and 0", h-hits, m-misses)
	}
	if math.Float64bits(fields[1].PeakC) != math.Float64bits(res.PeakC) {
		t.Errorf("1.0 corner peak %v C, Place's peak %v C", fields[1].PeakC, res.PeakC)
	}
}
