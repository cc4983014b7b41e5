package thermal

import (
	"context"
	"math"
	"testing"

	"tap25d/internal/geom"
	"tap25d/internal/material"
)

func newTestModel(t testing.TB, grid int) *Model {
	t.Helper()
	return newModelPrecond(t, grid, "")
}

// newModelPrecond is newTestModel under the given Options.Precond.
func newModelPrecond(t testing.TB, grid int, precond string) *Model {
	t.Helper()
	m, err := NewModel(45, 45, Options{Grid: grid, Precond: precond})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func centeredSource(power float64) Source {
	return Source{Rect: geom.Rect{Center: geom.Point{X: 22.5, Y: 22.5}, W: 10, H: 10}, Power: power}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(0, 45, Options{}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewModel(45, 45, Options{Grid: 1}); err == nil {
		t.Error("grid 1 accepted")
	}
	bad := material.DefaultStack()
	bad.ConvectionResistance = -1
	if _, err := NewModel(45, 45, Options{Stack: &bad}); err == nil {
		t.Error("invalid stack accepted")
	}
	noChip := material.DefaultStack()
	for i := range noChip.Layers {
		noChip.Layers[i].PowerLayer = false
	}
	if _, err := NewModel(45, 45, Options{Stack: &noChip}); err == nil {
		t.Error("stack without power layer accepted")
	}
}

func TestZeroPowerIsAmbient(t *testing.T) {
	m := newTestModel(t, 16)
	res, err := m.Solve([]Source{centeredSource(0)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PeakC-m.AmbientC()) > 1e-6 {
		t.Errorf("peak = %v, want ambient %v", res.PeakC, m.AmbientC())
	}
}

func TestCenteredSourcePeaksAtCenter(t *testing.T) {
	m := newTestModel(t, 32)
	res, err := m.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakC <= m.AmbientC() {
		t.Fatalf("peak %v should exceed ambient", res.PeakC)
	}
	if res.PeakAt.Euclid(geom.Point{X: 22.5, Y: 22.5}) > 3 {
		t.Errorf("peak at %v, want near center", res.PeakAt)
	}
	// Corner should be markedly cooler than the source.
	corner := res.TempAt(geom.Point{X: 1, Y: 1})
	if corner >= res.PeakC {
		t.Errorf("corner %v not cooler than peak %v", corner, res.PeakC)
	}
}

func TestSymmetry(t *testing.T) {
	m := newTestModel(t, 32)
	res, err := m.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Grid
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			a := res.ChipTempC[i*g+j]
			bMirror := res.ChipTempC[i*g+(g-1-j)]
			if math.Abs(a-bMirror) > 0.05 {
				t.Fatalf("x-mirror asymmetry at (%d,%d): %v vs %v", i, j, a, bMirror)
			}
			cMirror := res.ChipTempC[(g-1-i)*g+j]
			if math.Abs(a-cMirror) > 0.05 {
				t.Fatalf("y-mirror asymmetry at (%d,%d): %v vs %v", i, j, a, cMirror)
			}
		}
	}
}

func TestMorePowerIsHotter(t *testing.T) {
	m := newTestModel(t, 16)
	var prev float64
	for i, p := range []float64{10, 50, 100, 200, 400} {
		res, err := m.Solve([]Source{centeredSource(p)})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.PeakC <= prev {
			t.Fatalf("power %v gave peak %v, not hotter than %v", p, res.PeakC, prev)
		}
		prev = res.PeakC
	}
}

func TestLinearityInPower(t *testing.T) {
	// The network is linear: temperature rise should scale with power.
	m := newTestModel(t, 16)
	r1, err := m.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Solve([]Source{centeredSource(200)})
	if err != nil {
		t.Fatal(err)
	}
	rise1 := r1.PeakC - r1.AmbientC
	rise2 := r2.PeakC - r2.AmbientC
	if math.Abs(rise2-2*rise1) > 0.02*rise2 {
		t.Errorf("rise not linear: %v vs 2*%v", rise2, rise1)
	}
}

func TestSpreadingApartCools(t *testing.T) {
	// The core physical claim of the paper: separating two high-power
	// chiplets lowers the peak temperature.
	m := newTestModel(t, 32)
	mk := func(x1, x2 float64) []Source {
		return []Source{
			{Rect: geom.Rect{Center: geom.Point{X: x1, Y: 22.5}, W: 8, H: 8}, Power: 150},
			{Rect: geom.Rect{Center: geom.Point{X: x2, Y: 22.5}, W: 8, H: 8}, Power: 150},
		}
	}
	close, err := m.Solve(mk(18, 27)) // 1mm apart
	if err != nil {
		t.Fatal(err)
	}
	far, err := m.Solve(mk(8, 37)) // 21mm apart
	if err != nil {
		t.Fatal(err)
	}
	if far.PeakC >= close.PeakC {
		t.Errorf("far placement %v not cooler than close %v", far.PeakC, close.PeakC)
	}
	// The effect should be material (degrees, not millidegrees).
	if close.PeakC-far.PeakC < 0.5 {
		t.Errorf("spreading effect too small: %v vs %v", close.PeakC, far.PeakC)
	}
}

func TestCornerHotterThanCenterForSameSource(t *testing.T) {
	// A single source in the corner has less silicon around it to spread
	// heat into; it should run hotter than the same source centered.
	m := newTestModel(t, 32)
	center, err := m.Solve([]Source{{Rect: geom.Rect{Center: geom.Point{X: 22.5, Y: 22.5}, W: 8, H: 8}, Power: 150}})
	if err != nil {
		t.Fatal(err)
	}
	corner, err := m.Solve([]Source{{Rect: geom.Rect{Center: geom.Point{X: 5, Y: 5}, W: 8, H: 8}, Power: 150}})
	if err != nil {
		t.Fatal(err)
	}
	if corner.PeakC <= center.PeakC {
		t.Errorf("corner %v should be hotter than center %v", corner.PeakC, center.PeakC)
	}
}

func TestSolveErrors(t *testing.T) {
	m := newTestModel(t, 8)
	if _, err := m.Solve([]Source{{Rect: geom.Rect{Center: geom.Point{X: 5, Y: 5}, W: 1, H: 1}, Power: -5}}); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := m.Solve([]Source{{Rect: geom.Rect{}, Power: 5}}); err == nil {
		t.Error("empty footprint accepted")
	}
}

func TestWarmStartFaster(t *testing.T) {
	m := newTestModel(t, 24)
	src := []Source{centeredSource(150)}
	r1, err := m.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	// Identical re-solve should converge in almost no iterations.
	r2, err := m.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Iterations > r1.Iterations/2+1 {
		t.Errorf("warm start took %d iterations vs cold %d", r2.Iterations, r1.Iterations)
	}
	if math.Abs(r1.PeakC-r2.PeakC) > 1e-3 {
		t.Errorf("re-solve changed answer: %v vs %v", r1.PeakC, r2.PeakC)
	}
}

func TestResultAccessors(t *testing.T) {
	m := newTestModel(t, 16)
	res, err := m.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatal(err)
	}
	// CellCenter spans the interposer.
	c00 := res.CellCenter(0, 0)
	if c00.X <= 0 || c00.X >= 45 || c00.Y <= 0 {
		t.Errorf("CellCenter(0,0) = %v", c00)
	}
	// TempAt clamps out-of-range queries.
	_ = res.TempAt(geom.Point{X: -5, Y: 100})
	// MaxRectC over the source footprint equals the global peak here.
	got := res.MaxRectC(geom.Rect{Center: geom.Point{X: 22.5, Y: 22.5}, W: 10, H: 10})
	if math.Abs(got-res.PeakC) > 1e-9 {
		t.Errorf("MaxRectC = %v, want peak %v", got, res.PeakC)
	}
	// A rect smaller than a cell falls back to TempAt.
	tiny := res.MaxRectC(geom.Rect{Center: geom.Point{X: 1, Y: 1}, W: 0.1, H: 0.1})
	if tiny <= 0 {
		t.Errorf("tiny MaxRectC = %v", tiny)
	}
}

func TestEnergyBalance(t *testing.T) {
	// All injected power must leave through the heatsink convection and the
	// board path: sum(g_out * Trise) == total power.
	m := newTestModel(t, 16)
	const P = 123.0
	_, err := m.Solve([]Source{centeredSource(P)})
	if err != nil {
		t.Fatal(err)
	}
	g := m.grid
	conv := 1 / m.stack.ConvectionResistance / float64(g*g)
	board := m.stack.BoardConductance / float64(g*g)
	var out float64
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			out += conv * m.temps[m.sinkNode(i, j)]
			out += board * m.temps[m.devNode(0, i, j)]
		}
	}
	if math.Abs(out-P) > 0.01*P {
		t.Errorf("energy balance: out %v, in %v", out, P)
	}
}

func TestGridResolutionConvergence(t *testing.T) {
	// Peak temperatures at 24, 32, 48 resolution should agree within a
	// couple of degrees (discretization, not divergence). The coarsest grids
	// under-resolve the peak, which is why the paper fixes 64x64.
	var prev float64
	for i, grid := range []int{24, 32, 48} {
		m := newTestModel(t, grid)
		res, err := m.Solve([]Source{centeredSource(150)})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && math.Abs(res.PeakC-prev) > 3 {
			t.Errorf("grid %d peak %v far from previous %v", grid, res.PeakC, prev)
		}
		prev = res.PeakC
	}
}

func BenchmarkSolveGrid32(b *testing.B) {
	m := newTestModel(b, 32)
	src := []Source{
		{Rect: geom.Rect{Center: geom.Point{X: 12, Y: 12}, W: 10, H: 10}, Power: 150},
		{Rect: geom.Rect{Center: geom.Point{X: 32, Y: 32}, W: 10, H: 10}, Power: 150},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src[0].Rect.Center.X = 10 + float64(i%8) // perturb like the SA loop
		if _, err := m.Solve(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGrid64(b *testing.B) {
	m := newTestModel(b, 64)
	src := []Source{
		{Rect: geom.Rect{Center: geom.Point{X: 12, Y: 12}, W: 10, H: 10}, Power: 150},
		{Rect: geom.Rect{Center: geom.Point{X: 32, Y: 32}, W: 10, H: 10}, Power: 150},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src[0].Rect.Center.X = 10 + float64(i%8)
		if _, err := m.Solve(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNonFiniteFieldIsError: powers whose squares overflow once summed must
// not come back as the initial guess, which an infinite right-hand-side norm
// would let CG call converged, and a field with a non-finite temperature is
// an error, not a number. Neither may poison the next solve's warm start.
func TestNonFiniteFieldIsError(t *testing.T) {
	m := newTestModel(t, 16)
	huge := []Source{
		{Rect: geom.Rect{Center: geom.Point{X: 10, Y: 10}, W: 4, H: 4}, Power: 1e308},
		{Rect: geom.Rect{Center: geom.Point{X: 30, Y: 30}, W: 4, H: 4}, Power: 1e308},
	}
	if res, err := m.Solve(huge); err == nil {
		t.Fatalf("overflowing power solved to PeakC %v without error", res.PeakC)
	}
	want, err := newTestModel(t, 16).Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatal(err)
	}
	if got.PeakC != want.PeakC {
		t.Errorf("solve after the rejected one: PeakC %v, fresh model %v", got.PeakC, want.PeakC)
	}
	if _, err := m.SolveScaled(context.Background(), []Source{centeredSource(100)}, []float64{1, math.MaxFloat64}); err == nil {
		t.Error("a corner whose temperatures overflow was returned without error")
	}
}
