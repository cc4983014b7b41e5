package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tap25d/internal/material"
	"tap25d/internal/sparse"
)

// refVCycle is a test-local copy of the multigrid V-cycle as it ran before
// the split line smoother: every sweep subtracts each row's whole dot
// product and adds its tridiagonal terms back, the pre-smooth starts from a
// cleared z, and the defect after it is r − A·z through MulVec. It runs on
// the operators of a live hierarchy, read through Multigrid.Operator, and
// rebuilds the rest (line factors, bilinear transfer lists, the coarsest
// Cholesky factor) with the hierarchy's own formulas, so it differs from
// Multigrid.Apply only in rounding. It sweeps every level as one block
// unless twoBlock splits them.
type refVCycle struct {
	layers int
	lv     []refLevel
	chol   []float64
}

// refLevel is one level of refVCycle, in the hierarchy's numbering for it.
type refLevel struct {
	a            *sparse.CSR
	nx, ny       int
	line         bool      // line-major: every level but the coarsest
	diag, up, dn []float64 // each row's tridiagonal entries (0 when absent)
	lfac, dinv   []float64 // LDLᵀ factors of each column's tridiagonal block
	pPtr, pCol   []int32   // prolongation to the next finer level, per fine column
	pW           []float64
	r, z, t      []float64
	cut          int // first in-plane column of block 1 (nx·ny: one block)
}

func (lv *refLevel) row(p, c, layers int) int {
	if lv.line {
		return c*layers + p
	}
	return p*lv.nx*lv.ny + c
}

func newRefVCycle(t *testing.T, mg *sparse.Multigrid, geo sparse.GridGeometry) *refVCycle {
	t.Helper()
	ref := &refVCycle{layers: geo.Layers, lv: make([]refLevel, mg.Levels())}
	last := len(ref.lv) - 1
	for l := range ref.lv {
		lv := &ref.lv[l]
		lv.a, lv.nx, lv.ny, lv.line = mg.Operator(l), levelSize(geo.Nx, l), levelSize(geo.Ny, l), l < last
		lv.cut = lv.nx * lv.ny
		n := lv.a.N
		for _, v := range []*[]float64{&lv.diag, &lv.up, &lv.dn, &lv.lfac, &lv.dinv, &lv.r, &lv.z, &lv.t} {
			*v = make([]float64, n)
		}
		nxy := lv.nx * lv.ny
		for c := 0; c < nxy; c++ {
			prev := 0.0
			for p := 0; p < geo.Layers; p++ {
				i := lv.row(p, c, geo.Layers)
				lv.diag[i] = lv.a.At(i, i)
				if p+1 < geo.Layers {
					lv.up[i] = lv.a.At(i, lv.row(p+1, c, geo.Layers))
				}
				piv := lv.diag[i]
				if p > 0 {
					lv.dn[i] = lv.a.At(i, lv.row(p-1, c, geo.Layers))
					s := lv.up[lv.row(p-1, c, geo.Layers)]
					lv.lfac[i] = s * prev
					piv -= lv.lfac[i] * s
				}
				prev = 1 / piv
				lv.dinv[i] = prev
			}
		}
		if l > 0 {
			lv.pPtr, lv.pCol, lv.pW = refProlongation(levelSize(geo.Nx, l-1), levelSize(geo.Ny, l-1))
		}
	}
	ref.chol = refCholesky(t, ref.lv[last].a)
	return ref
}

// twoBlock splits every level of ref at in-plane row ny/2, so each sweep
// reads the couplings across the cut at their values from before the
// sweep: the serial definition of the two-block smoother.
func (ref *refVCycle) twoBlock() {
	for l := range ref.lv {
		lv := &ref.lv[l]
		lv.cut = lv.nx * (lv.ny / 2)
	}
}

// levelSize is the in-plane size n of the finest level on level l, where
// every coarsening halves it, odd sizes to ⌈n/2⌉.
func levelSize(n, l int) int {
	for range l {
		n = (n + 1) / 2
	}
	return n
}

// refProlongation builds the cell-centered bilinear prolongation from the
// ⌈nxF/2⌉×⌈nyF/2⌉ plane to the nxF×nyF plane above it, per fine column.
func refProlongation(nxF, nyF int) (pPtr, pCol []int32, pW []float64) {
	nxC, nyC := levelSize(nxF, 1), levelSize(nyF, 1)
	interp := func(f, nc int) (c0 int, w0 float64, c1 int, w1 float64) {
		c0, c1 = f/2, f/2+1
		if f%2 == 0 {
			c1 = f/2 - 1
		}
		if c1 < 0 || c1 >= nc {
			return c0, 1, -1, 0
		}
		return c0, 0.75, c1, 0.25
	}
	pPtr = []int32{0}
	for i := 0; i < nyF; i++ {
		ic0, wi0, ic1, wi1 := interp(i, nyC)
		for j := 0; j < nxF; j++ {
			jc0, wj0, jc1, wj1 := interp(j, nxC)
			add := func(ic, jc int, w float64) {
				pCol = append(pCol, int32(ic*nxC+jc))
				pW = append(pW, w)
			}
			add(ic0, jc0, wi0*wj0)
			if jc1 >= 0 {
				add(ic0, jc1, wi0*wj1)
			}
			if ic1 >= 0 {
				add(ic1, jc0, wi1*wj0)
				if jc1 >= 0 {
					add(ic1, jc1, wi1*wj1)
				}
			}
			pPtr = append(pPtr, int32(len(pCol)))
		}
	}
	return pPtr, pCol, pW
}

// refCholesky factors the coarsest operator densely, as the hierarchy does.
func refCholesky(t *testing.T, a *sparse.CSR) []float64 {
	t.Helper()
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
			t.Fatalf("reference coarsest Cholesky pivot %g at row %d", d, j)
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
	return L
}

// refCholSolve solves L·Lᵀ·z = r with refCholesky's dense factor, as the
// hierarchy did before it factored within the envelope.
func refCholSolve(L, z, r []float64) {
	n := len(z)
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

// Apply runs one reference V-cycle; r and z are in the bound matrix's
// layer-major numbering. It implements sparse.Preconditioner.
func (ref *refVCycle) Apply(z, r []float64) {
	lv := &ref.lv[0]
	nxy := lv.nx * lv.ny
	for p := 0; p < ref.layers; p++ {
		for c := 0; c < nxy; c++ {
			lv.r[lv.row(p, c, ref.layers)] = r[p*nxy+c]
		}
	}
	ref.cycle(0)
	for p := 0; p < ref.layers; p++ {
		for c := 0; c < nxy; c++ {
			z[p*nxy+c] = lv.z[lv.row(p, c, ref.layers)]
		}
	}
}

func (ref *refVCycle) cycle(l int) {
	lv := &ref.lv[l]
	if l == len(ref.lv)-1 {
		refCholSolve(ref.chol, lv.z, lv.r)
		return
	}
	clear(lv.z)
	ref.sweep(lv, false)
	lv.a.MulVec(lv.t, lv.z)
	for i := range lv.t {
		lv.t[i] = lv.r[i] - lv.t[i]
	}
	// Restriction R = Pᵀ, scattered in fine-column order (each coarse entry
	// sums its children in ascending order), then prolongation of the
	// coarse correction.
	nxt := &ref.lv[l+1]
	clear(nxt.r)
	for f := 0; f+1 < len(nxt.pPtr); f++ {
		for q := nxt.pPtr[f]; q < nxt.pPtr[f+1]; q++ {
			for p := 0; p < ref.layers; p++ {
				nxt.r[nxt.row(p, int(nxt.pCol[q]), ref.layers)] += nxt.pW[q] * lv.t[lv.row(p, f, ref.layers)]
			}
		}
	}
	ref.cycle(l + 1)
	for f := 0; f+1 < len(nxt.pPtr); f++ {
		for p := 0; p < ref.layers; p++ {
			acc := 0.0
			for q := nxt.pPtr[f]; q < nxt.pPtr[f+1]; q++ {
				acc += nxt.pW[q] * nxt.z[nxt.row(p, int(nxt.pCol[q]), ref.layers)]
			}
			lv.z[lv.row(p, f, ref.layers)] += acc
		}
	}
	ref.sweep(lv, true)
}

// sweep is one vertical-line block Gauss-Seidel sweep over lv's columns,
// forward or backward, updating lv.z in place.
func (ref *refVCycle) sweep(lv *refLevel, backward bool) {
	a, z, r := lv.a, lv.z, lv.r
	before := append([]float64(nil), z...)
	t := make([]float64, ref.layers)
	nxy := lv.nx * lv.ny
	for bi := 0; bi < nxy; bi++ {
		c := bi
		if backward {
			c = nxy - 1 - bi
		}
		for p := range t {
			i := lv.row(p, c, ref.layers)
			acc := r[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				x := z
				if j := int(a.Col[k]) / ref.layers; (j < lv.cut) != (c < lv.cut) {
					x = before
				}
				acc -= a.Val[k] * x[a.Col[k]]
			}
			acc += lv.diag[i] * z[i]
			if p > 0 {
				acc += lv.dn[i] * z[lv.row(p-1, c, ref.layers)]
			}
			if p+1 < ref.layers {
				acc += lv.up[i] * z[lv.row(p+1, c, ref.layers)]
			}
			t[p] = acc
		}
		for p := 1; p < len(t); p++ {
			t[p] -= lv.lfac[lv.row(p, c, ref.layers)] * t[p-1]
		}
		for p := range t {
			t[p] *= lv.dinv[lv.row(p, c, ref.layers)]
		}
		for p := len(t) - 2; p >= 0; p-- {
			t[p] -= lv.lfac[lv.row(p+1, c, ref.layers)] * t[p+1]
		}
		for p, v := range t {
			z[lv.row(p, c, ref.layers)] = v
		}
	}
}

// maxRelDiff returns max|got−want| / max|want|.
func maxRelDiff(got, want []float64) float64 {
	var d, s float64
	for i := range want {
		d = math.Max(d, math.Abs(got[i]-want[i]))
		s = math.Max(s, math.Abs(want[i]))
	}
	return d / s
}

// mgModel solves pc at grid g on the multigrid path and returns the model
// with its hierarchy built, plus the hierarchy's geometry.
func mgModel(t *testing.T, pc precondCase, g int) (*Model, sparse.GridGeometry) {
	t.Helper()
	stack := material.DefaultStackFor(pc.w, pc.h)
	m, err := NewModel(pc.w, pc.h, Options{Grid: g, Stack: &stack, Precond: precondMG})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(pc.sources); err != nil {
		t.Fatal(err)
	}
	return m, sparse.GridGeometry{Layers: m.nDevLayers + 2, Nx: g, Ny: g}
}

// TestSplitSmootherAgreesWithUnsplitCycle: the split line smoother reads
// only the couplings each sweep needs, but it is the same operator as the
// unsplit cycle in exact arithmetic. On real stacks one V-cycle must agree
// with the reference to 1e-12 (max-norm, relative) at every hierarchy shape
// the pinned hashes cover, and preconditioned CG must take the same number
// of iterations per solve at the paper grid and at grid 128. From grid 64
// up the hierarchy is split into two blocks (splitMinGrid), so at grid 64
// the reference is the serial two-block cycle; at grid 128 CG is held to
// the one-block cycle's count, which the split does not change there.
func TestSplitSmootherAgreesWithUnsplitCycle(t *testing.T) {
	for _, pc := range precondCases() {
		for _, g := range []int{16, 17, 24, 64} {
			t.Run(fmt.Sprintf("%s/apply/grid%d", pc.name, g), func(t *testing.T) {
				m, geo := mgModel(t, pc, g)
				ref := newRefVCycle(t, m.mg, geo)
				if g == 64 {
					ref.twoBlock()
				}
				r := make([]float64, m.nNodes)
				for i := range r {
					r[i] = float64((i*7919)%1009)/1009 - 0.5
				}
				got, want := make([]float64, len(r)), make([]float64, len(r))
				m.mg.Apply(got, r)
				ref.Apply(want, r)
				if d := maxRelDiff(got, want); d > 1e-12 {
					t.Errorf("V-cycle deviates from the unsplit reference by %.3g (relative)", d)
				}
			})
		}
		for _, g := range []int{64, 128} {
			t.Run(fmt.Sprintf("%s/cg/grid%d", pc.name, g), func(t *testing.T) {
				if g > 64 && testing.Short() {
					t.Skip("grid-128 solves are slow under -short")
				}
				m, geo := mgModel(t, pc, g)
				ref := newRefVCycle(t, m.mg, geo)
				if g == 64 {
					ref.twoBlock()
				}
				var iters [2]int
				for k, pre := range []sparse.Preconditioner{m.mg, ref} {
					x := make([]float64, m.nNodes)
					coldGuess(x)
					it, err := sparse.NewCGSolver(m.fixed.Mat).Solve(x, m.power, sparse.CGOptions{Tol: cgTol, MaxIter: m.maxIter, Precond: pre})
					if err != nil {
						t.Fatal(err)
					}
					iters[k] = it
				}
				if iters[0] != iters[1] {
					t.Errorf("CG took %d iterations under the split cycle, %d under the unsplit reference", iters[0], iters[1])
				}
			})
		}
	}
}

// TestTwoBlockCycleMatchesReference: from grid 64 up every smoothed level
// is split into two blocks at in-plane row ny/2, and each sweep lags the
// couplings across the cut. On the four precondCases stacks at grids 64
// and 128 one V-cycle must agree with the serial two-block reference to
// 1e-12 (max-norm, relative); TestSplitSmootherAgreesWithUnsplitCycle
// checks cold CG against the reference's count.
func TestTwoBlockCycleMatchesReference(t *testing.T) {
	for _, pc := range precondCases() {
		t.Run(pc.name, func(t *testing.T) {
			for _, g := range []int{64, 128} {
				if g > 64 && testing.Short() {
					continue // grid-128 models are slow under -short
				}
				m, geo := mgModel(t, pc, g)
				ref := newRefVCycle(t, m.mg, geo)
				ref.twoBlock()
				r := make([]float64, m.nNodes)
				for i := range r {
					r[i] = float64((i*7919)%1009)/1009 - 0.5
				}
				got, want, one := make([]float64, len(r)), make([]float64, len(r)), make([]float64, len(r))
				m.mg.Apply(got, r)
				ref.Apply(want, r)
				if d := maxRelDiff(got, want); d > 1e-12 {
					t.Errorf("grid %d: V-cycle deviates from the two-block reference by %.3g (relative)", g, d)
				}
				newRefVCycle(t, m.mg, geo).Apply(one, r)
				if d := maxRelDiff(got, one); d < 1e-9 {
					t.Errorf("grid %d: V-cycle is within %.3g of the one-block reference: the hierarchy is not split", g, d)
				}
			}
		})
	}
}

// TestTwoBlockCyclePositive: the two-block smoother is only guaranteed
// definite on M-matrix levels, and the Galerkin levels are not M-matrices,
// so r·M⁻¹r must be checked positive on real stacks, for random r, at the
// split grids 64, 128 and 256.
func TestTwoBlockCyclePositive(t *testing.T) {
	for _, g := range []int{64, 128, 256} {
		for _, pc := range precondCases() {
			t.Run(fmt.Sprintf("%s/grid%d", pc.name, g), func(t *testing.T) {
				if g > 128 && testing.Short() {
					t.Skip("grid-256 models are slow under -short")
				}
				m, _ := mgModel(t, pc, g)
				rng := rand.New(rand.NewSource(int64(g)))
				r, z := make([]float64, m.nNodes), make([]float64, m.nNodes)
				for k := 0; k < 4; k++ {
					for i := range r {
						r[i] = rng.NormFloat64()
					}
					m.mg.Apply(z, r)
					rz := 0.0
					for i := range r {
						rz += r[i] * z[i]
					}
					if !(rz > 0) {
						t.Fatalf("r·z = %g for random r %d", rz, k)
					}
				}
			})
		}
	}
}
