package tdp

import (
	"testing"

	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
	"tap25d/internal/thermal"
)

func tdpSystem() (*chiplet.System, chiplet.Placement) {
	sys := &chiplet.System{
		Name:        "tdp",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "HOT0", W: 12, H: 12, Power: 120},
			{Name: "HOT1", W: 12, H: 12, Power: 120},
			{Name: "MEM", W: 8, H: 8, Power: 10},
		},
		Channels: []chiplet.Channel{{Src: 0, Dst: 1, Wires: 64}},
	}
	p := chiplet.NewPlacement(3)
	p.Centers[0] = geom.Point{X: 13, Y: 22}
	p.Centers[1] = geom.Point{X: 32, Y: 22}
	p.Centers[2] = geom.Point{X: 22, Y: 38}
	return sys, p
}

func model(t testing.TB) *thermal.Model {
	t.Helper()
	m, err := thermal.NewModel(45, 45, thermal.Options{Grid: 24})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEnvelopeBasic(t *testing.T) {
	sys, p := tdpSystem()
	m := model(t)
	res, err := Envelope(sys, p, m, Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible envelope")
	}
	if res.PeakC > 85+0.5 {
		t.Errorf("envelope peak %v exceeds constraint", res.PeakC)
	}
	if res.EnvelopeW <= 10 {
		t.Errorf("envelope %v W implausibly low", res.EnvelopeW)
	}
	// At the envelope, slightly more power must violate the constraint;
	// verify via a direct solve at 1.1x the found scale.
	over := sys.ScaledSubset(res.Scale*1.1, []int{0, 1})
	srcs := []thermal.Source{
		{Rect: p.Rect(over, 0), Power: over.Chiplets[0].Power},
		{Rect: p.Rect(over, 1), Power: over.Chiplets[1].Power},
		{Rect: p.Rect(over, 2), Power: over.Chiplets[2].Power},
	}
	solved, err := m.Solve(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if solved.PeakC <= 85 {
		t.Errorf("10%% above envelope still feasible (%v C): envelope too conservative", solved.PeakC)
	}
}

func TestSpreadPlacementHasHigherTDP(t *testing.T) {
	// The paper's central claim for E4: a spread placement tolerates more
	// power than a compact one.
	sys, spread := tdpSystem()
	compact := chiplet.NewPlacement(3)
	compact.Centers[0] = geom.Point{X: 16, Y: 22}
	compact.Centers[1] = geom.Point{X: 29, Y: 22} // 1 mm gap between HOTs
	compact.Centers[2] = geom.Point{X: 22, Y: 35}

	m := model(t)
	rSpread, err := Envelope(sys, spread, m, Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rCompact, err := Envelope(sys, compact, m, Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rSpread.EnvelopeW <= rCompact.EnvelopeW {
		t.Errorf("spread TDP %v W not above compact %v W", rSpread.EnvelopeW, rCompact.EnvelopeW)
	}
}

func TestEnvelopeInfeasibleFixedPower(t *testing.T) {
	sys, p := tdpSystem()
	// Make the non-varied chiplet hot enough to exceed 85 C on its own.
	sys.Chiplets[2].Power = 2000
	m := model(t)
	res, err := Envelope(sys, p, m, Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("expected infeasible, got envelope %v W", res.EnvelopeW)
	}
}

func TestEnvelopeUnboundedWithinScale(t *testing.T) {
	sys, p := tdpSystem()
	m := model(t)
	// A critical temperature above the peak at 16× nominal power (about
	// 600 C here) never binds, so the search stops at its fixed 16× bound.
	res, err := Envelope(sys, p, m, Options{VaryIndices: []int{0, 1}, CriticalC: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Scale != 16 {
		t.Errorf("expected scale capped at 16, got %+v", res)
	}
	if want := sys.ScaledSubset(16, []int{0, 1}).TotalPower(); res.EnvelopeW != want {
		t.Errorf("envelope %v W at the cap, want %v W", res.EnvelopeW, want)
	}
}

func TestEnvelopeErrors(t *testing.T) {
	sys, p := tdpSystem()
	m := model(t)
	if _, err := Envelope(sys, p, m, Options{VaryIndices: []int{9}}); err == nil {
		t.Error("bad vary index accepted")
	}
	zero := *sys
	zero.Chiplets = append([]chiplet.Chiplet{}, sys.Chiplets...)
	zero.Chiplets[0].Power = 0
	zero.Chiplets[1].Power = 0
	if _, err := Envelope(&zero, p, m, Options{VaryIndices: []int{0, 1}}); err == nil {
		t.Error("zero varied power accepted")
	}
	bad := p.Clone()
	bad.Centers[1] = bad.Centers[0]
	if _, err := Envelope(sys, bad, m, Options{}); err == nil {
		t.Error("invalid placement accepted")
	}
}
