package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tap25d/internal/geom"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
)

// TestSuperposition: with identical footprints (hence identical conductivity
// fields), the temperature rise is linear in the power vector, so the rise of
// a combined load equals the sum of the individual rises.
func TestSuperposition(t *testing.T) {
	m := newTestModel(t, 16)
	rectA := geom.Rect{Center: geom.Point{X: 15, Y: 15}, W: 8, H: 8}
	rectB := geom.Rect{Center: geom.Point{X: 30, Y: 30}, W: 6, H: 10}

	// All three solves keep both footprints present (zero power keeps the
	// silicon in place) so the conductance matrix is identical.
	onlyA, err := m.Solve([]Source{{Rect: rectA, Power: 120}, {Rect: rectB, Power: 0}})
	if err != nil {
		t.Fatal(err)
	}
	onlyB, err := m.Solve([]Source{{Rect: rectA, Power: 0}, {Rect: rectB, Power: 80}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := m.Solve([]Source{{Rect: rectA, Power: 120}, {Rect: rectB, Power: 80}})
	if err != nil {
		t.Fatal(err)
	}
	amb := m.AmbientC()
	for i := range both.ChipTempC {
		sum := (onlyA.ChipTempC[i] - amb) + (onlyB.ChipTempC[i] - amb)
		got := both.ChipTempC[i] - amb
		if math.Abs(got-sum) > 0.02*(1+math.Abs(sum)) {
			t.Fatalf("superposition violated at cell %d: %v vs %v", i, got, sum)
		}
	}
}

// TestReciprocityOfInfluence: in a symmetric resistive network, the
// temperature rise at B due to power at A equals the rise at A due to the
// same power at B (thermal reciprocity), given symmetric geometry.
func TestReciprocityOfInfluence(t *testing.T) {
	m := newTestModel(t, 16)
	// Two identical footprints placed symmetrically about the center.
	rectA := geom.Rect{Center: geom.Point{X: 14, Y: 22.5}, W: 6, H: 6}
	rectB := geom.Rect{Center: geom.Point{X: 31, Y: 22.5}, W: 6, H: 6}

	atB, err := m.Solve([]Source{{Rect: rectA, Power: 100}, {Rect: rectB, Power: 0}})
	if err != nil {
		t.Fatal(err)
	}
	riseAtB := atB.TempAt(rectB.Center) - m.AmbientC()

	atA, err := m.Solve([]Source{{Rect: rectA, Power: 0}, {Rect: rectB, Power: 100}})
	if err != nil {
		t.Fatal(err)
	}
	riseAtA := atA.TempAt(rectA.Center) - m.AmbientC()

	if math.Abs(riseAtA-riseAtB) > 0.02*(riseAtA+riseAtB)/2 {
		t.Errorf("reciprocity violated: %v vs %v", riseAtA, riseAtB)
	}
}

// TestPeakInsideSourceFootprint: for a single source, the hottest cell must
// lie within (or adjacent to) its footprint wherever it is placed.
func TestPeakInsideSourceFootprint(t *testing.T) {
	m := newTestModel(t, 24)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		w := 4 + rng.Float64()*10
		h := 4 + rng.Float64()*10
		cx := w/2 + rng.Float64()*(45-w)
		cy := h/2 + rng.Float64()*(45-h)
		rect := geom.Rect{Center: geom.Point{X: cx, Y: cy}, W: w, H: h}
		res, err := m.Solve([]Source{{Rect: rect, Power: 100}})
		if err != nil {
			t.Fatal(err)
		}
		// Allow one cell of slack for discretization.
		slack := 45.0 / 24
		grown := geom.Rect{Center: rect.Center, W: rect.W + 2*slack, H: rect.H + 2*slack}
		if !grown.Contains(res.PeakAt) {
			t.Fatalf("trial %d: peak at %v outside source %v", trial, res.PeakAt, rect)
		}
	}
}

// TestIncrementalMatchesFullAssembly: the incremental solve path (delta
// rasterization + in-place matrix refresh) must agree with a full assembly
// cell by cell across a long random perturbation sequence. The reference is
// a new model per step, whose first solve assembles the whole matrix
// (initIncremental) and builds its hierarchy from scratch, seeded through
// RestoreWarmState with the previous reference field, so both paths see the
// same CG warm starts and the comparison isolates the assembly machinery;
// the incremental path is designed to be bit-identical, and this test
// enforces a 1e-9 relative ceiling per cell.
func TestIncrementalMatchesFullAssembly(t *testing.T) {
	inc, err := NewModel(45, 45, Options{Grid: 20})
	if err != nil {
		t.Fatal(err)
	}
	var warm []float64
	rng := rand.New(rand.NewSource(99))
	srcs := []Source{
		{Rect: geom.Rect{Center: geom.Point{X: 12, Y: 12}, W: 8, H: 6}, Power: 90},
		{Rect: geom.Rect{Center: geom.Point{X: 30, Y: 14}, W: 5, H: 9}, Power: 140},
		{Rect: geom.Rect{Center: geom.Point{X: 15, Y: 32}, W: 7, H: 7}, Power: 60},
		{Rect: geom.Rect{Center: geom.Point{X: 33, Y: 33}, W: 10, H: 4}, Power: 0},
	}
	for step := 0; step < 50; step++ {
		switch k := rng.Intn(len(srcs)); rng.Intn(5) {
		case 0: // nudge by a fraction of a cell — exercises tiny deltas
			srcs[k].Rect.Center.X += (rng.Float64() - 0.5) * 3
			srcs[k].Rect.Center.Y += (rng.Float64() - 0.5) * 3
		case 1: // rotate
			srcs[k].Rect.W, srcs[k].Rect.H = srcs[k].Rect.H, srcs[k].Rect.W
		case 2: // jump anywhere, including partially off-chip (clipped)
			srcs[k].Rect.Center = geom.Point{X: rng.Float64() * 45, Y: rng.Float64() * 45}
		case 3: // change power, sometimes to zero
			srcs[k].Power = float64(rng.Intn(4)) * 55
		case 4: // no-op — the matrix-unchanged fast path must still agree
		}
		ri, err := inc.Solve(srcs)
		if err != nil {
			t.Fatalf("step %d: incremental: %v", step, err)
		}
		full, err := NewModel(45, 45, Options{Grid: 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := full.RestoreWarmState(warm); err != nil {
			t.Fatal(err)
		}
		rf, err := full.Solve(srcs)
		if err != nil {
			t.Fatalf("step %d: full: %v", step, err)
		}
		warm = full.WarmState()
		for c := range rf.ChipTempC {
			got, want := ri.ChipTempC[c], rf.ChipTempC[c]
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("step %d: cell %d: incremental %v vs full %v", step, c, got, want)
			}
		}
		if math.Abs(ri.PeakC-rf.PeakC) > 1e-9*math.Max(1, math.Abs(rf.PeakC)) {
			t.Fatalf("step %d: peak %v vs %v", step, ri.PeakC, rf.PeakC)
		}
	}
}

// TestResetColdMatchesNewModel: a model that has annealed through a walk of
// moves and is then reset cold solves a placement from the middle of the
// walk exactly as a new model's first solve does, in bits and in counters
// (one full assembly, one hierarchy set-up on the multigrid path), on its
// own matrix and hierarchy. A reset whose first solve fails on a bad source
// keeps the rebuild pending.
func TestResetColdMatchesNewModel(t *testing.T) {
	for _, grid := range []int{20, 64} {
		t.Run(fmt.Sprint(grid), func(t *testing.T) {
			var walked metrics.Counters
			m, err := NewModel(45, 45, Options{Grid: grid, Counters: &walked})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(grid)))
			srcs := []Source{
				{Rect: geom.Rect{Center: geom.Point{X: 12, Y: 12}, W: 8, H: 6}, Power: 90},
				{Rect: geom.Rect{Center: geom.Point{X: 30, Y: 14}, W: 5, H: 9}, Power: 140},
				{Rect: geom.Rect{Center: geom.Point{X: 15, Y: 32}, W: 7, H: 7}, Power: 60},
			}
			var best []Source
			for step := 0; step < 12; step++ {
				if step == 6 {
					best = slices.Clone(srcs)
				}
				k := rng.Intn(len(srcs))
				srcs[k].Rect.Center.X += (rng.Float64() - 0.5) * 6
				srcs[k].Rect.Center.Y += (rng.Float64() - 0.5) * 6
				if _, err := m.Solve(srcs); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			mat, mg := m.fixed.Mat, m.mg

			var freshCtr metrics.Counters
			fresh, err := NewModel(45, 45, Options{Grid: grid, Counters: &freshCtr})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Solve(best)
			if err != nil {
				t.Fatal(err)
			}

			var ctr metrics.Counters
			m.ResetCold(&ctr, nil, nil)
			bad := append([]Source{{Rect: best[0].Rect, Power: -1}}, best[1:]...)
			if _, err := m.Solve(bad); err == nil {
				t.Fatal("solve with a negative power succeeded")
			}
			got, err := m.Solve(best)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != want.Iterations || math.Float64bits(got.PeakC) != math.Float64bits(want.PeakC) {
				t.Errorf("reset model: %v C in %d iterations, new model %v C in %d",
					got.PeakC, got.Iterations, want.PeakC, want.Iterations)
			}
			for c, v := range want.ChipTempC {
				if math.Float64bits(got.ChipTempC[c]) != math.Float64bits(v) {
					t.Fatalf("cell %d: reset model %v C, new model %v C", c, got.ChipTempC[c], v)
				}
			}
			if ctr != freshCtr {
				t.Errorf("reset model counted %+v, new model %+v", ctr, freshCtr)
			}
			if m.fixed.Mat != mat || m.mg != mg {
				t.Error("reset model built a new matrix or hierarchy")
			}
		})
	}
}

// BenchmarkThermalSolveIncremental contrasts the three solve regimes the
// annealer sees: a cold first solve (full assembly), re-solving unchanged
// sources (matrix untouched, warm start converges immediately), and a small
// move (delta rasterization over two footprints).
func BenchmarkThermalSolveIncremental(b *testing.B) {
	mkSources := func(dx float64) []Source {
		return []Source{
			{Rect: geom.Rect{Center: geom.Point{X: 12 + dx, Y: 12}, W: 8, H: 6}, Power: 90},
			{Rect: geom.Rect{Center: geom.Point{X: 30, Y: 14}, W: 5, H: 9}, Power: 140},
			{Rect: geom.Rect{Center: geom.Point{X: 15, Y: 32}, W: 7, H: 7}, Power: 60},
		}
	}
	b.Run("cold", func(b *testing.B) {
		src := mkSources(0)
		for i := 0; i < b.N; i++ {
			m := newTestModel(b, 24)
			if _, err := m.Solve(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		m := newTestModel(b, 24)
		src := mkSources(0)
		if _, err := m.Solve(src); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Solve(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		m := newTestModel(b, 24)
		if _, err := m.Solve(mkSources(0)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Solve(mkSources(float64(i%2) * 1.5)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAmbientShiftsUniformly: changing the ambient temperature shifts every
// cell by the same offset (the solver works in rise space).
func TestAmbientShiftsUniformly(t *testing.T) {
	base, err := NewModel(45, 45, Options{Grid: 12})
	if err != nil {
		t.Fatal(err)
	}
	stack := material.DefaultStack()
	stack.AmbientC = 60
	hot, err := NewModel(45, 45, Options{Grid: 12, Stack: &stack})
	if err != nil {
		t.Fatal(err)
	}
	src := []Source{centeredSource(100)}
	r1, err := base.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := hot.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((r2.PeakC-r1.PeakC)-15) > 1e-6 {
		t.Errorf("ambient shift: peaks %v and %v differ by %v, want 15",
			r1.PeakC, r2.PeakC, r2.PeakC-r1.PeakC)
	}
}
