package tap25d

import (
	"bytes"
	"strings"
	"testing"
)

func TestCriticalOverride(t *testing.T) {
	sys, _ := BuiltinSystem("ascend910")
	// With an artificially low threshold, the (normally safe) Ascend layout
	// becomes "infeasible" — Feasible must follow the override.
	opt := fastOpt()
	opt.CriticalC = 60
	res, err := Evaluate(sys, Ascend910OriginalPlacement(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("peak %.1f C should violate the 60 C override", res.PeakC)
	}
}

func TestMultiGPUSystemFacade(t *testing.T) {
	s := MultiGPUSystem(50)
	if s.InterposerW != 50 || s.InterposerH != 50 {
		t.Errorf("interposer %v x %v", s.InterposerW, s.InterposerH)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceRejectsInvalidSystem(t *testing.T) {
	bad := &System{Name: "bad"}
	if _, err := Place(bad, fastOpt()); err == nil {
		t.Error("invalid system placed")
	}
	if _, err := PlaceCompact(bad, fastOpt()); err == nil {
		t.Error("invalid system compact-placed")
	}
	if _, err := PlaceCompactSeqPair(bad, fastOpt()); err == nil {
		t.Error("invalid system seqpair-placed")
	}
	if _, err := Evaluate(bad, Placement{}, fastOpt()); err == nil {
		t.Error("invalid system evaluated")
	}
}

func TestExactRoutingNeverWorse(t *testing.T) {
	sys, _ := BuiltinSystem("cpudram")
	p := CPUDRAMOriginalPlacement()
	fast, err := Evaluate(sys, p, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	opt.ExactRouting = true
	exact, err := Evaluate(sys, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if exact.WirelengthMM > fast.WirelengthMM+1e-6 {
		t.Errorf("exact MILP %.1f mm worse than fast router %.1f mm",
			exact.WirelengthMM, fast.WirelengthMM)
	}
}

func TestGasStationFlowOnFacade(t *testing.T) {
	sys, _ := BuiltinSystem("multigpu")
	opt := fastOpt()
	opt.GasStation = true
	opt.Steps = 50
	res, err := Place(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Routing.GasStation {
		t.Error("final routing not gas-station")
	}
	if err := CheckRouting(sys, res.Routing); err != nil {
		t.Fatal(err)
	}
}

func TestTDPEnvelopeAllChiplets(t *testing.T) {
	// nil vary indices scales every chiplet.
	sys, _ := BuiltinSystem("ascend910")
	env, err := TDPEnvelope(sys, Ascend910OriginalPlacement(), nil, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !env.Feasible || env.EnvelopeW <= sys.TotalPower() {
		t.Errorf("ascend (safe at nominal) should have headroom: %+v", env)
	}
}

func TestPlacementSimilarityFacade(t *testing.T) {
	sys, _ := BuiltinSystem("ascend910")
	orig := Ascend910OriginalPlacement()
	if d := PlacementSimilarity(sys, orig, orig); d > 1e-9 {
		t.Errorf("self similarity = %v", d)
	}
	other := orig.Clone()
	other.Centers[1] = Point{X: 10, Y: 38.5} // move Nimbus across the die
	if d := PlacementSimilarity(sys, orig, other); d <= 0 {
		t.Errorf("distinct placements similarity = %v, want > 0", d)
	}
}

func TestWritePlacementSVGFacade(t *testing.T) {
	sys, _ := BuiltinSystem("ascend910")
	res, err := Evaluate(sys, Ascend910OriginalPlacement(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlacementSVG(&buf, sys, res, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<svg ") || !strings.Contains(out, "Virtuvian") {
		t.Error("SVG incomplete")
	}
}

// TestNegativeBudgetsRejected: a negative step or run budget is an error
// that names the field, at every entry point that reads one, instead of a
// silently skipped anneal.
func TestNegativeBudgetsRejected(t *testing.T) {
	sys, err := BuiltinSystem("multigpu")
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(*System, Options) (*Result, error){
		"Place":               Place,
		"PlaceCompact":        PlaceCompact,
		"PlaceCompactSeqPair": PlaceCompactSeqPair,
	}
	for _, c := range []struct {
		field string
		opt   Options
	}{
		{"Steps", Options{Steps: -4}},
		{"Runs", Options{Runs: -1}},
		{"CompactSteps", Options{CompactSteps: -20000}},
	} {
		for name, place := range entries {
			res, err := place(sys, c.opt)
			if err == nil || res != nil {
				t.Errorf("%s with negative %s: result %v, error %v; want an error", name, c.field, res, err)
				continue
			}
			if !strings.Contains(err.Error(), "Options."+c.field+" ") {
				t.Errorf("%s with negative %s: error %q does not name the field", name, c.field, err)
			}
		}
	}
}
