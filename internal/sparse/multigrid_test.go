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
		name   string
		grid   int
		levels int
	}{
		{"cholesky-coarsest", 16, 3},
		// 17 → 9 → 5: odd planes coarsen to ⌈n/2⌉, short last cells included.
		{"odd-coarsening", 17, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := grid3D(tc.grid, 4)
			mg, err := NewMultigrid(a, stackGeo(tc.grid, 4))
			if err != nil {
				t.Fatal(err)
			}
			if got := mg.Levels(); got != tc.levels {
				t.Fatalf("Levels() = %d, want %d", got, tc.levels)
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
	itJ, err := NewCGSolver(a).Solve(xj, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMultigrid(a, geo)
	if err != nil {
		t.Fatal(err)
	}
	xm := make([]float64, a.N)
	itM, err := NewCGSolver(a).Solve(xm, rhs, CGOptions{Tol: 1e-10, Precond: mg})
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
		it, err := NewCGSolver(a).Solve(x, rhs, CGOptions{Tol: 1e-8, Precond: mg})
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
	itFresh, err := NewCGSolver(a).Solve(x, rhs, CGOptions{Tol: 1e-10, Precond: mg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Val {
		a.Val[i] *= 3
	}
	// Stale hierarchy: still converges, to the correct (scaled) solution.
	want := make([]float64, a.N)
	if _, err := NewCGSolver(a).Solve(want, rhs, CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	xStale := make([]float64, a.N)
	if _, err := NewCGSolver(a).Solve(xStale, rhs, CGOptions{Tol: 1e-10, Precond: mg}); err != nil {
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
	itRefreshed, err := NewCGSolver(a).Solve(xNew, rhs, CGOptions{Tol: 1e-10, Precond: mg})
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

// TestDenseCholeskySolve: the coarsest-level Cholesky factor and solve,
// formed within the operator's envelope, recover x from A·x.
func TestDenseCholeskySolve(t *testing.T) {
	a := grid3D(8, 1) // small SPD system, factored entirely
	lev := &mgLevel{n: a.N, rowPtr: a.RowPtr, col: a.Col}
	lev.envelope()
	L := make([]float64, lev.envPtr[a.N])
	if err := envCholesky(a, lev, L); err != nil {
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
	envSolve(L, lev, got, rhs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// denseCholesky is a test-local copy of the coarsest-level factorization as
// it ran before the envelope: a dense lower triangle L with A = L·Lᵀ, every
// entry summing all of its k < j terms.
func denseCholesky(a *CSR) ([]float64, error) {
	n := a.N
	L := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			L[i*n+int(a.Col[k])] = a.Val[k]
		}
	}
	for j := 0; j < n; j++ {
		d := L[j*n+j]
		for k := 0; k < j; k++ {
			d -= L[j*n+k] * L[j*n+k]
		}
		if d <= 0 {
			return nil, fmt.Errorf("sparse: Cholesky pivot %g <= 0 at row %d; matrix not SPD", d, j)
		}
		dj := math.Sqrt(d)
		L[j*n+j] = dj
		for i := j + 1; i < n; i++ {
			s := L[i*n+j]
			for k := 0; k < j; k++ {
				s -= L[i*n+k] * L[j*n+k]
			}
			L[i*n+j] = s / dj
		}
	}
	return L, nil
}

// cholSolve is the dense forward and backward substitution that went with
// denseCholesky.
func cholSolve(L []float64, n int, z, r []float64) {
	for i := 0; i < n; i++ {
		s := r[i]
		for k := 0; k < i; k++ {
			s -= L[i*n+k] * z[k]
		}
		z[i] = s / L[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= L[k*n+i] * z[k]
		}
		z[i] = s / L[i*n+i]
	}
}

// bandedSPD returns a random symmetric, strictly diagonally dominant matrix
// whose rows reach back a random 0–12 columns, so its envelope is ragged.
func bandedSPD(n int, rng *rand.Rand) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := max(0, i-rng.Intn(13)); j < i; j++ {
			if j == i-1 || rng.Intn(3) == 0 {
				b.AddSym(i, j, 0.1+rng.Float64())
			}
		}
		b.AddDiag(i, 0.01+rng.Float64())
	}
	return b.Build()
}

// TestEnvelopeCholeskyMatchesDense: the envelope factorization leaves out
// only products with an exact zero, so its factor must equal the dense
// factor's lower triangle bit for bit (zero outside the envelope), and its
// solve the dense solve, on the coarsest operators of the grid-16, 24, 64
// and 128 hierarchies of two stacks (one with layer-skipping couplings) and
// on a random banded SPD matrix.
func TestEnvelopeCholeskyMatchesDense(t *testing.T) {
	type tc struct {
		name string
		a    *CSR
		lev  *mgLevel
	}
	var cases []tc
	for _, g := range []int{16, 24, 64, 128} {
		for name, a := range map[string]*CSR{"grid3D": grid3D(g, 4), "skip": skipStack(g, 4)} {
			mg, err := NewMultigrid(a, stackGeo(g, 4))
			if err != nil {
				t.Fatal(err)
			}
			last := len(mg.lv) - 1
			cases = append(cases, tc{fmt.Sprintf("%s/grid%d", name, g), mg.lv[last].a, mg.s.levels[last]})
		}
	}
	rng := rand.New(rand.NewSource(11))
	banded := bandedSPD(300, rng)
	lev := &mgLevel{n: banded.N, rowPtr: banded.RowPtr, col: banded.Col}
	lev.envelope()
	cases = append(cases, tc{"banded", banded, lev})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.a.N
			dense, err := denseCholesky(c.a)
			if err != nil {
				t.Fatal(err)
			}
			L := make([]float64, c.lev.envPtr[n])
			if err := envCholesky(c.a, c.lev, L); err != nil {
				t.Fatal(err)
			}
			if c.lev.envPtr[n] >= int32(n*(n+1)/2) {
				t.Errorf("envelope holds %d entries, the dense triangle %d", c.lev.envPtr[n], n*(n+1)/2)
			}
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					got := 0.0
					if f := int(c.lev.envFirst[i]); j >= f {
						got = L[int(c.lev.envPtr[i])+j-f]
					}
					if math.Float64bits(got) != math.Float64bits(dense[i*n+j]) {
						t.Fatalf("L[%d,%d] = %v, dense %v", i, j, got, dense[i*n+j])
					}
				}
			}
			r, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
			for trial := 0; trial < 3; trial++ {
				for i := range r {
					r[i] = rng.NormFloat64()
				}
				envSolve(L, c.lev, got, r)
				cholSolve(dense, n, want, r)
				sameBits(t, "solve", got, want)
			}
		})
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
// for bit: every level's operator values and line factors, and the coarsest
// Cholesky factor.
func sameHierarchy(t *testing.T, mg, want *Multigrid) {
	t.Helper()
	for l := range want.lv {
		got, want := &mg.lv[l], &want.lv[l]
		sameBits(t, fmt.Sprintf("level %d values", l), got.a.Val, want.a.Val)
		sameBits(t, fmt.Sprintf("level %d lfac", l), got.lfac, want.lfac)
		sameBits(t, fmt.Sprintf("level %d dinv", l), got.dinv, want.dinv)
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
// recomputes nothing. Grid 17 exercises odd coarsening (17 → 9 → 5).
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
			envSolve(mg.chol, mg.s.levels[l], z, r)
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
		coarse, fine := mg.s.levels[l+1], mg.s.levels[l]
		mg.restrict(l+1, 0, coarse.nx*coarse.ny, rs[l+1], t, acc)
		cycle(l + 1)
		mg.prolongAdd(l+1, 0, fine.nx*fine.ny, z, zs[l+1], acc)
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
// columns] at split's lEnd and uStart, with the tridiagonal entries inside the own
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
					lo, hi, e, u := lev.rowPtr[i], lev.rowPtr[i+1], lev.split[i].lEnd, lev.split[i].uStart
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

// TestTwoBlockCycleBitsAcrossGOMAXPROCS: a grid-128 hierarchy is split into
// two blocks, and at GOMAXPROCS above 1 a lone cycle runs block 1 on a
// helper goroutine. The split alone fixes every row's arithmetic, so a
// cycle must give the same bits at GOMAXPROCS 1, 2 and 4.
func TestTwoBlockCycleBitsAcrossGOMAXPROCS(t *testing.T) {
	const g, layers, cols = 128, 4, 4
	a := grid3D(g, layers)
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 8; k++ {
		localMove(t, a, g, layers, rng)
	}
	mg, err := NewMultigrid(a, stackGeo(g, layers))
	if err != nil {
		t.Fatal(err)
	}
	for l, lev := range mg.s.levels {
		if want := lev.nx * lev.ny / 2; lev.cut != want {
			t.Fatalf("level %d: block 1 starts at column %d, want %d", l, lev.cut, want)
		}
	}
	rs := make([][]float64, cols)
	for c := range rs {
		rs[c] = make([]float64, a.N)
		for i := range rs[c] {
			rs[c][i] = rng.NormFloat64()
		}
	}
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	want := make([][]float64, cols)
	for c := range rs {
		want[c] = make([]float64, a.N)
		mg.Apply(want[c], rs[c])
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := make([]float64, a.N)
		mg.Apply(got, rs[0])
		sameBits(t, fmt.Sprintf("GOMAXPROCS %d", procs), got, want[0])
	}
}

// TestTwoBlockCycleForksOnlyOntoIdleCores: from grid 64 up a hierarchy is
// split, and a cycle forks its helper only while the V-cycles in flight,
// helpers included, leave a core idle. At GOMAXPROCS 2 a lone cycle forks,
// a cycle that starts while another flow's cycle holds the second core
// runs both blocks on its caller, and cycles of two hierarchies applied at
// once give the bits of serial applies and leave no core claimed.
func TestTwoBlockCycleForksOnlyOntoIdleCores(t *testing.T) {
	const g, layers, cols = 64, 4, 6
	old := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	rng := rand.New(rand.NewSource(13))
	var mgs [2]*Multigrid
	var rs, want [2][][]float64
	for k := range mgs {
		a := grid3D(g, layers)
		localMove(t, a, g, layers, rng)
		var err error
		if mgs[k], err = NewMultigrid(a, stackGeo(g, layers)); err != nil {
			t.Fatal(err)
		}
		if lev := mgs[k].s.levels[0]; lev.cut != g*g/2 {
			t.Fatalf("grid %d: block 1 starts at column %d, want %d", g, lev.cut, g*g/2)
		}
		for range cols {
			r := make([]float64, a.N)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			z := make([]float64, a.N)
			mgs[k].Apply(z, r)
			rs[k], want[k] = append(rs[k], r), append(want[k], z)
		}
	}
	if mgs[0].forks != cols {
		t.Fatalf("%d of %d lone cycles forked, want all", mgs[0].forks, cols)
	}
	z := make([]float64, len(rs[0][0]))
	busy.Add(1) // another flow's cycle holds the second core
	mgs[0].Apply(z, rs[0][0])
	busy.Add(-1)
	if mgs[0].forks != cols {
		t.Fatal("a cycle forked while no core was idle")
	}
	sameBits(t, "unforked cycle", z, want[0][0])
	var got [2][cols][]float64
	var wg sync.WaitGroup
	for k, mg := range mgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cols {
				got[k][c] = make([]float64, len(rs[k][c]))
				mg.Apply(got[k][c], rs[k][c])
			}
		}()
	}
	wg.Wait()
	for k := range mgs {
		for c := range cols {
			sameBits(t, fmt.Sprintf("hierarchy %d, concurrent column %d", k, c), got[k][c], want[k][c])
		}
	}
	if n := busy.Load(); n != 0 {
		t.Fatalf("%d cores still claimed after every cycle returned", n)
	}
}
