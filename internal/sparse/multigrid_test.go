package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// stackGeo pairs grid3D's node layout (z*g*g + i*g + j) with the
// GridGeometry the multigrid builder expects.
func stackGeo(g, l int) GridGeometry { return GridGeometry{Layers: l, Nx: g, Ny: g} }

func TestMultigridGeometryValidation(t *testing.T) {
	a := grid3D(8, 2)
	if _, err := NewMultigrid(a, GridGeometry{Layers: 3, Nx: 8, Ny: 8}); err == nil {
		t.Fatal("mismatched geometry accepted")
	}
	if _, err := NewMultigrid(a, GridGeometry{}); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

func TestMultigridLevels(t *testing.T) {
	// 64 → 32 → 16 → 8 → 4: five levels; coarsest has 4·4·2 = 32 nodes.
	mg, err := NewMultigrid(grid3D(64, 2), stackGeo(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := mg.Levels(); got != 5 {
		t.Fatalf("Levels() = %d, want 5", got)
	}
	// A 6×6 plane cannot coarsen at all (below the 8-cell floor).
	mg, err = NewMultigrid(grid3D(6, 2), stackGeo(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := mg.Levels(); got != 1 {
		t.Fatalf("Levels() on 6×6 = %d, want 1 (coarsest-only)", got)
	}
}

// TestMultigridGalerkinConsistency: P reproduces constants, so the Galerkin
// operator must satisfy A_c·1 = Pᵀ·(A·1) exactly up to rounding — the
// boundary conductances of the fine operator reappear, restricted, on every
// coarse level. Each level is checked in its own row numbering, with the
// per-column transfer lists applied to every layer.
func TestMultigridGalerkinConsistency(t *testing.T) {
	const layers = 3
	a := grid3D(16, layers)
	mg, err := NewMultigrid(a, stackGeo(16, layers))
	if err != nil {
		t.Fatal(err)
	}
	ones := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	fineRow := make([]float64, a.N)
	mg.lv[0].a.MulVec(fineRow, ones(a.N))
	for l := 1; l < mg.Levels(); l++ {
		lev, fine := mg.s.levels[l], mg.s.levels[l-1]
		// want = Pᵀ·fineRow restricted level by level.
		want := make([]float64, lev.n)
		for p := 0; p < layers; p++ {
			for C := 0; C < lev.nx*lev.ny; C++ {
				var s float64
				for q := lev.ptPtr[C]; q < lev.ptPtr[C+1]; q++ {
					s += lev.ptW[q] * fineRow[fine.row(p, int(lev.ptCol[q]))]
				}
				want[lev.row(p, C)] = s
			}
		}
		got := make([]float64, lev.n)
		mg.lv[l].a.MulVec(got, ones(lev.n))
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("level %d: (A_c·1)[%d] = %g, want %g", l, i, got[i], want[i])
			}
		}
		fineRow = want
	}
}

// TestMultigridApplySPD: the V-cycle must be a symmetric positive-definite
// operator — u·M⁻¹v = v·M⁻¹u and r·M⁻¹r > 0 — or PCG's theory (and its
// rz > 0 guard) breaks down.
func TestMultigridApplySPD(t *testing.T) {
	for _, tc := range []struct {
		name string
		grid int
		gs   bool
	}{
		{"cholesky-coarsest", 16, false},
		// A 17×17 plane cannot coarsen, and its 17·17·4 = 1156 nodes exceed
		// coarsestMaxDense, so the coarsest solve falls back to GS sweeps.
		{"gs-fallback-coarsest", 17, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := grid3D(tc.grid, 4)
			mg, err := NewMultigrid(a, stackGeo(tc.grid, 4))
			if err != nil {
				t.Fatal(err)
			}
			if gs := mg.chol == nil; gs != tc.gs {
				t.Fatalf("GS coarsest fallback = %v, want %v", gs, tc.gs)
			}
			rng := rand.New(rand.NewSource(7))
			u := make([]float64, a.N)
			v := make([]float64, a.N)
			mu := make([]float64, a.N)
			mv := make([]float64, a.N)
			for trial := 0; trial < 4; trial++ {
				for i := range u {
					u[i] = rng.NormFloat64()
					v[i] = rng.NormFloat64()
				}
				mg.Apply(mu, u)
				mg.Apply(mv, v)
				var uMv, vMu, uMu float64
				for i := range u {
					uMv += u[i] * mv[i]
					vMu += v[i] * mu[i]
					uMu += u[i] * mu[i]
				}
				if rel := math.Abs(uMv-vMu) / (math.Abs(uMv) + math.Abs(vMu)); rel > 1e-10 {
					t.Fatalf("asymmetric: u·Mv=%g v·Mu=%g (rel %g)", uMv, vMu, rel)
				}
				if uMu <= 0 {
					t.Fatalf("not positive definite: u·Mu = %g", uMu)
				}
			}
		})
	}
}

// TestMultigridRefreshUnchangedBitIdentical: Refresh is a deterministic
// function of the bound matrix's values, so re-coarsening an unchanged
// matrix reproduces the hierarchy — and the V-cycle — bit for bit.
func TestMultigridRefreshUnchangedBitIdentical(t *testing.T) {
	for _, g := range []int{16, 17} {
		a := grid3D(g, 4)
		rng := rand.New(rand.NewSource(5))
		mg, err := NewMultigrid(a, stackGeo(g, 4))
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, a.N)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		before := make([]float64, a.N)
		mg.Apply(before, r)
		if err := mg.Refresh(); err != nil {
			t.Fatal(err)
		}
		after := make([]float64, a.N)
		mg.Apply(after, r)
		for i := range before {
			if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
				t.Fatalf("grid %d: Apply after Refresh differs at %d: %v != %v", g, i, after[i], before[i])
			}
		}
	}
}

func TestMultigridCGAgreesWithJacobi(t *testing.T) {
	a := grid3D(32, 4)
	geo := stackGeo(32, 4)
	rng := rand.New(rand.NewSource(3))
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	xj := make([]float64, a.N)
	itJ, err := SolveCG(a, xj, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMultigrid(a, geo)
	if err != nil {
		t.Fatal(err)
	}
	xm := make([]float64, a.N)
	itM, err := SolveCG(a, xm, rhs, CGOptions{Tol: 1e-10, Precond: mg})
	if err != nil {
		t.Fatal(err)
	}
	var scale float64
	for i := range xj {
		if v := math.Abs(xj[i]); v > scale {
			scale = v
		}
	}
	for i := range xj {
		if math.Abs(xj[i]-xm[i]) > 1e-7*scale {
			t.Fatalf("x[%d]: jacobi %g vs mg %g (scale %g)", i, xj[i], xm[i], scale)
		}
	}
	if itM >= itJ {
		t.Fatalf("mg took %d iterations, jacobi %d — preconditioner not helping", itM, itJ)
	}
	if mg.Cycles() == 0 || mg.Setups() != 1 {
		t.Fatalf("cycles=%d setups=%d, want >0 and 1", mg.Cycles(), mg.Setups())
	}
}

// TestMultigridIterationScaling: the whole point of the hierarchy — the
// preconditioned iteration count must stay near-constant as the grid grows
// (plain CG grows roughly linearly in grid size).
func TestMultigridIterationScaling(t *testing.T) {
	iters := map[int]int{}
	for _, g := range []int{16, 64} {
		a := grid3D(g, 4)
		mg, err := NewMultigrid(a, stackGeo(g, 4))
		if err != nil {
			t.Fatal(err)
		}
		rhs := make([]float64, a.N)
		rng := rand.New(rand.NewSource(11))
		for i := range rhs {
			rhs[i] = rng.Float64()
		}
		x := make([]float64, a.N)
		it, err := SolveCG(a, x, rhs, CGOptions{Tol: 1e-8, Precond: mg})
		if err != nil {
			t.Fatal(err)
		}
		iters[g] = it
	}
	if iters[64] > 2*iters[16] {
		t.Fatalf("iterations grew %d → %d from grid 16 to 64; want within 2×", iters[16], iters[64])
	}
}

// TestMultigridRefreshTracksValues: after scaling the bound matrix in place,
// a stale hierarchy must still produce the right answer (the convergence test
// uses true residuals) and a Refresh must restore the iteration count.
func TestMultigridRefreshTracksValues(t *testing.T) {
	a := grid3D(16, 4)
	mg, err := NewMultigrid(a, stackGeo(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.N)
	rng := rand.New(rand.NewSource(5))
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	x := make([]float64, a.N)
	itFresh, err := SolveCG(a, x, rhs, CGOptions{Tol: 1e-10, Precond: mg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Val {
		a.Val[i] *= 3
	}
	// Stale hierarchy: still converges, to the correct (scaled) solution.
	want := make([]float64, a.N)
	if _, err := SolveCG(a, want, rhs, CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	xStale := make([]float64, a.N)
	if _, err := SolveCG(a, xStale, rhs, CGOptions{Tol: 1e-10, Precond: mg}); err != nil {
		t.Fatalf("stale-precond solve failed: %v", err)
	}
	var scale float64
	for _, v := range want {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	for i := range want {
		if math.Abs(xStale[i]-want[i]) > 1e-6*scale {
			t.Fatalf("stale x[%d] = %g, want %g", i, xStale[i], want[i])
		}
	}
	// Refreshed hierarchy: uniform scaling leaves the preconditioned system
	// as well-conditioned as before, so the iteration count comes back.
	if err := mg.Refresh(); err != nil {
		t.Fatal(err)
	}
	xNew := make([]float64, a.N)
	itRefreshed, err := SolveCG(a, xNew, rhs, CGOptions{Tol: 1e-10, Precond: mg})
	if err != nil {
		t.Fatal(err)
	}
	if itRefreshed > itFresh+2 {
		t.Fatalf("refreshed solve took %d iterations, fresh took %d", itRefreshed, itFresh)
	}
	if mg.Setups() != 2 {
		t.Fatalf("Setups() = %d, want 2", mg.Setups())
	}
}

func TestMultigridRefreshRejectsNonSPD(t *testing.T) {
	a := grid3D(8, 2)
	mg, err := NewMultigrid(a, stackGeo(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Val {
		a.Val[i] = -a.Val[i]
	}
	if err := mg.Refresh(); err == nil {
		t.Fatal("Refresh accepted a negated matrix")
	}
}

// TestMultigridStructureShared: two instances over the same geometry and
// pattern must share one symbolic hierarchy (that sharing is what lets
// best-of-N replicas amortize the setup).
func TestMultigridStructureShared(t *testing.T) {
	a1 := grid3D(16, 3)
	a2 := grid3D(16, 3)
	mg1, err := NewMultigrid(a1, stackGeo(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	mg2, err := NewMultigrid(a2, stackGeo(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if mg1.s != mg2.s {
		t.Fatal("identical (geometry, pattern) pairs built distinct symbolic hierarchies")
	}
}

func TestDenseCholeskySolve(t *testing.T) {
	a := grid3D(8, 1) // small SPD system, factored entirely
	L, err := denseCholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	want := make([]float64, a.N)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	rhs := make([]float64, a.N)
	a.MulVec(rhs, want)
	got := make([]float64, a.N)
	cholSolve(L, a.N, got, rhs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// addCond adds d to the symmetric conductance between nodes i and j of a in
// place: +d on both diagonals, -d on both couplings.
func addCond(t *testing.T, a *CSR, i, j int, d float64) {
	t.Helper()
	slot := func(r, c int) int {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if int(a.Col[k]) == c {
				return int(k)
			}
		}
		t.Fatalf("no entry (%d, %d)", r, c)
		return -1
	}
	a.Val[slot(i, i)] += d
	a.Val[slot(j, j)] += d
	a.Val[slot(i, j)] -= d
	a.Val[slot(j, i)] -= d
}

// localMove perturbs the conductances of a random in-plane window, the way
// one annealing move rewrites the cells a chiplet footprint covers: lateral
// couplings on layer 1 and the vertical couplings from the layer below the
// top into the top layer (the spreader coupling of the thermal stack).
func localMove(t *testing.T, a *CSR, g, layers int, rng *rand.Rand) {
	t.Helper()
	id := func(z, i, j int) int { return z*g*g + i*g + j }
	w := 2 + rng.Intn(4)
	i0, j0 := rng.Intn(g-w), rng.Intn(g-w)
	for i := i0; i < i0+w; i++ {
		for j := j0; j < j0+w; j++ {
			addCond(t, a, id(1, i, j), id(1, i, j+1), 0.5*rng.Float64())
			addCond(t, a, id(1, i, j), id(1, i+1, j), 0.5*rng.Float64())
			addCond(t, a, id(layers-2, i, j), id(layers-1, i, j), rng.Float64())
		}
	}
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// sameHierarchy fails unless mg and want hold the same numeric hierarchy bit
// for bit: every level's operator values, line factors and inverse
// diagonals, and the coarsest Cholesky factor.
func sameHierarchy(t *testing.T, mg, want *Multigrid) {
	t.Helper()
	for l := range want.lv {
		got, want := &mg.lv[l], &want.lv[l]
		sameBits(t, fmt.Sprintf("level %d values", l), got.a.Val, want.a.Val)
		sameBits(t, fmt.Sprintf("level %d lfac", l), got.lfac, want.lfac)
		sameBits(t, fmt.Sprintf("level %d dinv", l), got.dinv, want.dinv)
		sameBits(t, fmt.Sprintf("level %d invD", l), got.invD, want.invD)
	}
	sameBits(t, "coarsest Cholesky", mg.chol, want.chol)
}

// matchesFresh fails unless mg's numeric hierarchy and V-cycle are
// bit-identical to a freshly built Multigrid over the same matrix.
func matchesFresh(t *testing.T, mg *Multigrid, r []float64) {
	t.Helper()
	fresh, err := NewMultigrid(mg.a, mg.s.geo)
	if err != nil {
		t.Fatal(err)
	}
	sameHierarchy(t, mg, fresh)
	got := make([]float64, len(r))
	want := make([]float64, len(r))
	mg.Apply(got, r)
	fresh.Apply(want, r)
	sameBits(t, "Apply", got, want)
}

// TestMultigridIncrementalRefreshBitIdentical: a Refresh after local value
// changes recomputes only the rows those changes reach, and must leave every
// level's operator, smoother factors, coarsest factorization and V-cycle
// bit-identical to a from-scratch hierarchy — including a no-op Refresh that
// recomputes nothing. Grid 17 exercises the uncoarsenable GS-fallback level.
func TestMultigridIncrementalRefreshBitIdentical(t *testing.T) {
	const layers = 4
	for _, g := range []int{16, 17, 64} {
		t.Run(fmt.Sprint(g), func(t *testing.T) {
			a := grid3D(g, layers)
			rng := rand.New(rand.NewSource(int64(g)))
			mg, err := NewMultigrid(a, stackGeo(g, layers))
			if err != nil {
				t.Fatal(err)
			}
			r := make([]float64, a.N)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			for step := 0; step < 4; step++ {
				localMove(t, a, g, layers, rng)
				if err := mg.Refresh(); err != nil {
					t.Fatal(err)
				}
				if n := countTrue(mg.lv[0].dirty); n == 0 || n == a.N {
					t.Fatalf("step %d: %d of %d fine rows recomputed, want a strict subset", step, n, a.N)
				}
				matchesFresh(t, mg, r)
			}
			if err := mg.Refresh(); err != nil {
				t.Fatal(err)
			}
			for l := range mg.lv {
				if n := countTrue(mg.lv[l].dirty); n != 0 {
					t.Fatalf("no-op Refresh recomputed %d rows on level %d", n, l)
				}
			}
			matchesFresh(t, mg, r)
			if got := mg.Setups(); got != 6 {
				t.Fatalf("Setups() = %d, want 6", got)
			}
		})
	}
}

// TestMultigridBuildBitsAcrossGOMAXPROCS: a full Refresh splits each level's
// Galerkin rows, and the symbolic build each level's coarse pattern rows,
// over min(GOMAXPROCS, rows/galerkinGrainRows) workers, so a fresh hierarchy
// must hold the same patterns, operators, line factors and coarsest Cholesky
// factor whether it was built on one worker or four.
func TestMultigridBuildBitsAcrossGOMAXPROCS(t *testing.T) {
	const g, layers = 64, 4
	a := grid3D(g, layers)
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 8; k++ {
		localMove(t, a, g, layers, rng)
	}
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	serialStruct := buildMGStructure(a, stackGeo(g, layers))
	runtime.GOMAXPROCS(4)
	if !reflect.DeepEqual(buildMGStructure(a, stackGeo(g, layers)), serialStruct) {
		t.Error("symbolic hierarchy built on four workers differs from the serial build")
	}
	runtime.GOMAXPROCS(1)
	serial, err := NewMultigrid(a, stackGeo(g, layers))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := NewMultigrid(a, stackGeo(g, layers))
	if err != nil {
		t.Fatal(err)
	}
	if n := countTrue(parallel.lv[1].dirty); n < 4*galerkinGrainRows {
		t.Fatalf("level 1 built %d rows, too few for four workers", n)
	}
	sameHierarchy(t, parallel, serial)
}

// TestMultigridConcurrentApply: V-cycles running at once on one hierarchy
// each give the bits of the same cycle run alone, and every cycle counts.
func TestMultigridConcurrentApply(t *testing.T) {
	const g, layers, cols = 32, 4, 8
	a := grid3D(g, layers)
	mg, err := NewMultigrid(a, stackGeo(g, layers))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rs, want, got := make([][]float64, cols), make([][]float64, cols), make([][]float64, cols)
	for c := range rs {
		rs[c], want[c], got[c] = make([]float64, a.N), make([]float64, a.N), make([]float64, a.N)
		for i := range rs[c] {
			rs[c][i] = rng.NormFloat64()
		}
		mg.Apply(want[c], rs[c])
	}
	var wg sync.WaitGroup
	for c := range rs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mg.Apply(got[c], rs[c])
		}(c)
	}
	wg.Wait()
	for c := range rs {
		sameBits(t, fmt.Sprintf("column %d", c), got[c], want[c])
	}
	if n := mg.Cycles(); n != 2*cols {
		t.Fatalf("Cycles() = %d, want %d", n, 2*cols)
	}
}

// TestMultigridRefreshAfterFailureIsFull: a Refresh that fails part-way has
// already rewritten some rows, so the next Refresh must recompute every row
// rather than trust the row marks — it fails again on the unchanged non-SPD
// matrix, and once the matrix is repaired it matches a fresh hierarchy.
func TestMultigridRefreshAfterFailureIsFull(t *testing.T) {
	const g, layers = 16, 4
	a := grid3D(g, layers)
	mg, err := NewMultigrid(a, stackGeo(g, layers))
	if err != nil {
		t.Fatal(err)
	}
	row, slot := 5*g+3, -1
	for k := a.RowPtr[row]; k < a.RowPtr[row+1]; k++ {
		if int(a.Col[k]) == row {
			slot = int(k)
		}
	}
	orig := a.Val[slot]
	a.Val[slot] = -orig
	if err := mg.Refresh(); err == nil {
		t.Fatal("Refresh accepted a negative diagonal")
	}
	if err := mg.Refresh(); err == nil {
		t.Fatal("second Refresh of the unchanged non-SPD matrix succeeded")
	}
	a.Val[slot] = orig
	if err := mg.Refresh(); err != nil {
		t.Fatal(err)
	}
	if n := countTrue(mg.lv[0].dirty); n != a.N {
		t.Fatalf("Refresh after a failure recomputed %d of %d fine rows, want all", n, a.N)
	}
	r := make([]float64, a.N)
	for i := range r {
		r[i] = float64(i%11) - 5
	}
	matchesFresh(t, mg, r)
	if got := mg.Setups(); got != 2 {
		t.Fatalf("Setups() = %d, want 2 (failed passes do not count)", got)
	}
}

func countTrue(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
}

// TestMultigridStructCacheBounded: the process-wide symbolic cache keeps at
// most mgStructCacheMax hierarchies, evicting the oldest, while instances
// whose structure was evicted keep working. The builds run concurrently, as
// service workers and best-of-N replicas do.
func TestMultigridStructCacheBounded(t *testing.T) {
	var wg sync.WaitGroup
	for k := 0; k <= mgStructCacheMax; k++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mg, err := NewMultigrid(grid3D(g, 2), stackGeo(g, 2))
			if err != nil {
				t.Error(err)
				return
			}
			r := make([]float64, mg.a.N)
			for i := range r {
				r[i] = 1
			}
			z := make([]float64, len(r))
			mg.Apply(z, r)
			for i, v := range z {
				if !(v > 0) {
					t.Errorf("grid %d: z[%d] = %v, want > 0", g, i, v)
					return
				}
			}
		}(8 + 2*k)
	}
	wg.Wait()
	mgStructCache.Lock()
	n := len(mgStructCache.m)
	mgStructCache.Unlock()
	if n != mgStructCacheMax {
		t.Fatalf("cache holds %d hierarchies, want %d", n, mgStructCacheMax)
	}
}

// skipStack is grid3D(g, l) plus two couplings the thermal stacks place
// elsewhere: a vertical coupling that leaves the column (layer z to z+1 one
// cell over), and, in every third column, an in-column coupling from layer z
// to z+2. The tridiagonal line solve leaves that layer skip on the
// right-hand side.
func skipStack(g, l int) *CSR {
	b := NewBuilder(g * g * l)
	id := func(z, i, j int) int { return z*g*g + i*g + j }
	a := grid3D(g, l)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			b.Add(i, int(a.Col[k]), a.Val[k])
		}
	}
	for z := 0; z+1 < l; z++ {
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				if j+1 < g {
					b.AddSym(id(z, i, j), id(z+1, i, j+1), 0.7)
				}
				if z+2 < l && (i+j)%3 == 0 {
					b.AddSym(id(z, i, j), id(z+2, i, j), 2)
				}
			}
		}
	}
	return b.Build()
}

// unsplitApply is the V-cycle as it ran before the split line smoother,
// kept as a reference: every sweep subtracts each row's whole dot product
// and adds its tridiagonal terms back, the pre-smooth starts from a cleared
// z, and the defect after it is r − A·z through MulVec. It runs on mg's
// hierarchy with vectors of its own, so it differs from mg.Apply only in
// rounding.
func unsplitApply(mg *Multigrid, z, r []float64) {
	rs, zs := make([][]float64, len(mg.lv)), make([][]float64, len(mg.lv))
	for l := range mg.lv {
		rs[l], zs[l] = make([]float64, mg.lv[l].a.N), make([]float64, mg.lv[l].a.N)
	}
	lev0 := mg.s.levels[0]
	nxy := lev0.nx * lev0.ny
	for i := range r {
		rs[0][lev0.row(i/nxy, i%nxy)] = r[i]
	}
	var cycle func(l int)
	cycle = func(l int) {
		d, z, r := &mg.lv[l], zs[l], rs[l]
		if l == len(mg.lv)-1 {
			if mg.chol != nil {
				cholSolve(mg.chol, d.a.N, z, r)
			} else {
				mg.coarseGS(d, z, r)
			}
			return
		}
		clear(z)
		unsplitSweep(mg, l, z, r, false)
		t := make([]float64, len(z))
		d.a.MulVec(t, z)
		for i := range t {
			t[i] = r[i] - t[i]
		}
		acc := make([]float64, mg.s.geo.Layers)
		mg.restrict(l+1, rs[l+1], t, acc)
		cycle(l + 1)
		mg.prolongAdd(l+1, z, zs[l+1], acc)
		unsplitSweep(mg, l, z, r, true)
	}
	cycle(0)
	for i := range z {
		z[i] = zs[0][lev0.row(i/nxy, i%nxy)]
	}
}

func unsplitSweep(mg *Multigrid, l int, z, r []float64, backward bool) {
	lev, d := mg.s.levels[l], &mg.lv[l]
	a := d.a
	t := make([]float64, lev.layers)
	nxy := lev.nx * lev.ny
	for bi := 0; bi < nxy; bi++ {
		c := bi
		if backward {
			c = nxy - 1 - bi
		}
		base := c * lev.layers
		for p := range t {
			i := base + p
			acc := r[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				acc -= a.Val[k] * z[a.Col[k]]
			}
			acc += a.Val[lev.diagSlot[i]] * z[i]
			if s := lev.dnSlot[i]; s >= 0 {
				acc += a.Val[s] * z[i-1]
			}
			if s := lev.upSlot[i]; s >= 0 {
				acc += a.Val[s] * z[i+1]
			}
			t[p] = acc
		}
		d.solveLine(base, t)
		copy(z[base:], t)
	}
}

// TestMultigridSplitRowLayout: every smoothed level stores each row in
// ascending column order, split as [earlier columns | own column | later
// columns] at lEnd and uStart, with the tridiagonal entries inside the own
// column; level 0's slot map points each entry at its bound-matrix slot; and
// the V-cycle that reads only the parts each sweep needs matches the unsplit
// reference. skipStack's layer-skip coupling is the one entry that sits in
// the own column outside the tridiagonal block — the thermal stacks have
// none — so it alone exercises that path of the defect and the post-smooth.
func TestMultigridSplitRowLayout(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *CSR
		skip bool
	}{
		{"grid3D", grid3D(16, 4), false},
		{"layer-skip", skipStack(16, 4), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mg, err := NewMultigrid(tc.a, stackGeo(16, 4))
			if err != nil {
				t.Fatal(err)
			}
			for l, lev := range mg.s.levels {
				if !lev.line {
					continue
				}
				if lev.skip != tc.skip {
					t.Errorf("level %d: skip = %v, want %v", l, lev.skip, tc.skip)
				}
				for i := 0; i < lev.n; i++ {
					lo, hi, e, u := lev.rowPtr[i], lev.rowPtr[i+1], lev.lEnd[i], lev.uStart[i]
					first, end := int32(i-i%lev.layers), int32(i-i%lev.layers+lev.layers)
					for k := lo; k < hi; k++ {
						j := lev.col[k]
						if k > lo && j <= lev.col[k-1] {
							t.Fatalf("level %d row %d: columns not ascending at slot %d", l, i, k)
						}
						if (k < e) != (j < first) || (k >= u) != (j >= end) {
							t.Fatalf("level %d row %d: slot %d (column %d) on the wrong side of [%d,%d)", l, i, k, j, e, u)
						}
					}
					if d := lev.diagSlot[i]; !(e <= d && d < u) {
						t.Fatalf("level %d row %d: diagonal slot %d outside [%d,%d)", l, i, d, e, u)
					}
					for _, s := range []int32{lev.upSlot[i], lev.dnSlot[i]} {
						if s >= 0 && !(e <= s && s < u) {
							t.Fatalf("level %d row %d: vertical slot %d outside [%d,%d)", l, i, s, e, u)
						}
					}
				}
			}
			lev0, snap := mg.s.levels[0], mg.lv[0].a
			nxy := lev0.nx * lev0.ny
			for li := 0; li < tc.a.N; li++ {
				i := lev0.row(li/nxy, li%nxy)
				for k := lev0.rowPtr[i]; k < lev0.rowPtr[i+1]; k++ {
					s := lev0.src[k]
					if s < tc.a.RowPtr[li] || s >= tc.a.RowPtr[li+1] || snap.Val[k] != tc.a.Val[s] ||
						lev0.col[k] != int32(lev0.row(int(tc.a.Col[s])/nxy, int(tc.a.Col[s])%nxy)) {
						t.Fatalf("level-0 slot %d maps to bound slot %d, which is not its entry", k, s)
					}
				}
			}
			rng := rand.New(rand.NewSource(9))
			r := make([]float64, tc.a.N)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			got, want := make([]float64, len(r)), make([]float64, len(r))
			mg.Apply(got, r)
			unsplitApply(mg, want, r)
			var d, s float64
			for i := range want {
				d, s = math.Max(d, math.Abs(got[i]-want[i])), math.Max(s, math.Abs(want[i]))
			}
			if d > 1e-12*s {
				t.Fatalf("V-cycle deviates from the unsplit reference by %.3g (relative)", d/s)
			}
		})
	}
}
