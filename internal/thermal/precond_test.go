package thermal

import (
	"math"
	"testing"

	"tap25d/internal/geom"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
	"tap25d/internal/systems"

	"tap25d/internal/chiplet"
)

// caseSources turns a system placement into thermal sources, mirroring
// placer.Sources without importing the placer (which depends on thermal).
func caseSources(sys *chiplet.System, p chiplet.Placement) []Source {
	srcs := make([]Source, len(sys.Chiplets))
	for i := range sys.Chiplets {
		srcs[i] = Source{Rect: p.Rect(sys, i), Power: sys.Chiplets[i].Power}
	}
	return srcs
}

// shelfPlacement lays the system's chiplets out in deterministic left-to-right
// shelves with a 1mm gap — not wirelength-optimized, just a valid in-bounds
// arrangement for systems without a published placement.
func shelfPlacement(sys *chiplet.System) chiplet.Placement {
	p := chiplet.NewPlacement(len(sys.Chiplets))
	const gap = 1.0
	x, y, rowH := gap, gap, 0.0
	for i, c := range sys.Chiplets {
		if x+c.W+gap > sys.InterposerW {
			x = gap
			y += rowH + gap
			rowH = 0
		}
		p.Centers[i] = geom.Point{X: x + c.W/2, Y: y + c.H/2}
		x += c.W + gap
		if c.H > rowH {
			rowH = c.H
		}
	}
	return p
}

// precondCase is one scenario of the preconditioner agreement property test.
type precondCase struct {
	name    string
	w, h    float64
	grid    int
	sources []Source
}

func precondCases() []precondCase {
	var cases []precondCase
	for _, s := range []struct {
		name string
		sys  *chiplet.System
		p    chiplet.Placement
	}{
		{"multigpu", systems.MultiGPU(), shelfPlacement(systems.MultiGPU())},
		{"cpudram", systems.CPUDRAM(), systems.CPUDRAMOriginal()},
		{"ascend910", systems.Ascend910(), systems.Ascend910Original()},
	} {
		cases = append(cases, precondCase{
			name: s.name, w: s.sys.InterposerW, h: s.sys.InterposerH,
			grid: 64, sources: caseSources(s.sys, s.p),
		})
	}
	// A generated 128×128 scenario beyond the paper case studies: a dense
	// 3×3 array of heterogeneous dies on a 60mm interposer.
	var gen []Source
	for i := 0; i < 9; i++ {
		r, c := i/3, i%3
		gen = append(gen, Source{
			Rect: geom.Rect{
				Center: geom.Point{X: 10 + 20*float64(c), Y: 10 + 20*float64(r)},
				W:      8 + float64(i%4), H: 12 - float64(i%3),
			},
			Power: 40 + 25*float64(i%5),
		})
	}
	cases = append(cases, precondCase{name: "generated128", w: 60, h: 60, grid: 128, sources: gen})
	return cases
}

func solveWith(t *testing.T, pc precondCase, precond string) *Result {
	t.Helper()
	stack := material.DefaultStackFor(pc.w, pc.h)
	m, err := NewModel(pc.w, pc.h, Options{Grid: pc.grid, Stack: &stack, Precond: precond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(pc.sources)
	if err != nil {
		t.Fatalf("%s %s: %v", pc.name, precond, err)
	}
	return res
}

// TestPrecondAgreement: both preconditioners solve the same SPD system to
// the same tolerance, so the multigrid fields must match the Jacobi reference
// on all three paper case studies and a generated 128-grid scenario — to well
// within the accuracy the tolerance implies, independent of iteration counts.
func TestPrecondAgreement(t *testing.T) {
	for _, pc := range precondCases() {
		t.Run(pc.name, func(t *testing.T) {
			ref := solveWith(t, pc, "jacobi")
			got := solveWith(t, pc, "mg")
			if math.Abs(got.PeakC-ref.PeakC) > 0.02 {
				t.Errorf("mg PeakC %.4f vs jacobi %.4f", got.PeakC, ref.PeakC)
			}
			worst := 0.0
			for i := range got.ChipTempC {
				if d := math.Abs(got.ChipTempC[i] - ref.ChipTempC[i]); d > worst {
					worst = d
				}
			}
			if worst > 0.02 {
				t.Errorf("mg field deviates %.4f C from jacobi", worst)
			}
		})
	}
}

// TestPrecondAutoGrid64BitIdentical pins the grid-selected default on each
// side of autoMGGrid: at grid 48 it is the historical Jacobi path, and at the
// paper's grid 64 it is the multigrid path — each bit-identical to an
// explicit override, same iteration count and same bits in every cell.
func TestPrecondAutoGrid64BitIdentical(t *testing.T) {
	for _, tc := range []struct {
		grid    int
		precond string
	}{
		{48, precondJacobi},
		{64, precondMG},
	} {
		pc := precondCases()[1] // cpudram
		pc.grid = tc.grid
		def := solveWith(t, pc, "")
		exp := solveWith(t, pc, tc.precond)
		if exp.Iterations != def.Iterations {
			t.Fatalf("grid %d: %s took %d iterations, default %d", tc.grid, tc.precond, exp.Iterations, def.Iterations)
		}
		for i := range def.ChipTempC {
			if math.Float64bits(exp.ChipTempC[i]) != math.Float64bits(def.ChipTempC[i]) {
				t.Fatalf("grid %d: cell %d differs: %s %v vs default %v", tc.grid, i, tc.precond, exp.ChipTempC[i], def.ChipTempC[i])
			}
		}
	}
}

// TestPrecondAutoSelectsMGAtFineGrids: from grid 64 up the default runs the
// multigrid path, visible through the mg_cycles/mg_setups counters.
func TestPrecondAutoSelectsMGAtFineGrids(t *testing.T) {
	var ctr metrics.Counters
	stack := material.DefaultStackFor(45, 45)
	m, err := NewModel(45, 45, Options{Grid: 64, Stack: &stack, Counters: &ctr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(precondCases()[1].sources); err != nil {
		t.Fatal(err)
	}
	if ctr.MGSetups == 0 || ctr.MGCycles == 0 {
		t.Fatalf("auto at grid 64 did not run multigrid: setups=%d cycles=%d", ctr.MGSetups, ctr.MGCycles)
	}
}

// TestPrecondUnknownRejected: the override accepts only "", "jacobi" and
// "mg"; the removed "ssor" and "auto" spellings are errors, not aliases.
func TestPrecondUnknownRejected(t *testing.T) {
	stack := material.DefaultStackFor(45, 45)
	for _, pre := range []string{"ilu", "ssor", "auto"} {
		if _, err := NewModel(45, 45, Options{Grid: 32, Stack: &stack, Precond: pre}); err == nil {
			t.Errorf("preconditioner %q accepted", pre)
		}
	}
}
