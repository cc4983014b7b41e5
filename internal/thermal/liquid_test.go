package thermal

import (
	"context"
	"testing"

	"tap25d/internal/geom"
)

func TestLiquidValidation(t *testing.T) {
	m := newTestModel(t, 8)
	src := []Source{centeredSource(100)}
	if _, err := m.SolveLiquid(context.Background(), src, LiquidCooling{FlowLPM: -1}); err == nil {
		t.Error("negative flow accepted")
	}
	if _, err := m.SolveLiquid(context.Background(), src, LiquidCooling{HTC: -5}); err == nil {
		t.Error("negative HTC accepted")
	}
	if _, err := m.SolveLiquid(context.Background(), []Source{{Power: -1, Rect: geom.Rect{Center: geom.Point{X: 4, Y: 4}, W: 1, H: 1}}}, LiquidCooling{}); err == nil {
		t.Error("negative power accepted")
	}
}

func TestLiquidMuchCoolerThanAir(t *testing.T) {
	// The point of expensive cooling: the same compact hot placement runs
	// dramatically cooler under a microchannel cold plate.
	m := newTestModel(t, 16)
	src := []Source{
		{Rect: geom.Rect{Center: geom.Point{X: 19, Y: 22.5}, W: 10, H: 10}, Power: 200},
		{Rect: geom.Rect{Center: geom.Point{X: 30, Y: 22.5}, W: 10, H: 10}, Power: 200},
	}
	air, err := m.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	liq, err := m.SolveLiquid(context.Background(), src, LiquidCooling{})
	if err != nil {
		t.Fatal(err)
	}
	if liq.PeakC >= air.PeakC-5 {
		t.Errorf("liquid %v C should be well below air %v C", liq.PeakC, air.PeakC)
	}
	if liq.PeakC <= liq.AmbientC-25 {
		t.Errorf("liquid peak %v C implausibly cold", liq.PeakC)
	}
	if liq.Iterations <= 0 {
		t.Errorf("liquid Iterations = %d, want the last CG solve's count", liq.Iterations)
	}
}

func TestLiquidOutletSideWarmer(t *testing.T) {
	// Caloric heating: with a symmetric source, the downstream (right) half
	// of the die must be at least as warm as the upstream half.
	m := newTestModel(t, 16)
	// High power and a gentle flow make the gradient visible.
	src := []Source{centeredSource(400)}
	res, err := m.SolveLiquid(context.Background(), src, LiquidCooling{FlowLPM: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Grid
	var left, right float64
	for i := 0; i < g; i++ {
		for j := 0; j < g/2; j++ {
			left += res.ChipTempC[i*g+j]
			right += res.ChipTempC[i*g+(g-1-j)]
		}
	}
	if right <= left {
		t.Errorf("downstream side (%v) not warmer than upstream (%v)", right, left)
	}
}

func TestLiquidMoreFlowIsCooler(t *testing.T) {
	m := newTestModel(t, 12)
	src := []Source{centeredSource(300)}
	slow, err := m.SolveLiquid(context.Background(), src, LiquidCooling{FlowLPM: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.SolveLiquid(context.Background(), src, LiquidCooling{FlowLPM: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fast.PeakC >= slow.PeakC {
		t.Errorf("more flow should cool: %v vs %v", fast.PeakC, slow.PeakC)
	}
}

func TestLiquidDoesNotCorruptAirSolves(t *testing.T) {
	m := newTestModel(t, 12)
	src := []Source{centeredSource(150)}
	ref, err := m.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SolveLiquid(context.Background(), src, LiquidCooling{}); err != nil {
		t.Fatal(err)
	}
	again, err := m.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	if d := ref.PeakC - again.PeakC; d > 0.01 || d < -0.01 {
		t.Errorf("air solve changed after liquid solve: %v vs %v", ref.PeakC, again.PeakC)
	}
}
