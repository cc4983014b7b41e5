// Package sparse provides the sparse linear algebra needed by the thermal
// solver: compressed sparse row (CSR) matrices assembled from coordinate
// triplets, and iterative solvers (preconditioned conjugate gradient, with a
// Jacobi or a geometric multigrid preconditioner, and symmetric Gauss-Seidel)
// for the symmetric positive-definite conductance systems G·T = P arising
// from the finite-difference thermal model.
package sparse

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"tap25d/internal/faultinject"
)

// Builder accumulates coordinate-format (row, col, value) entries. Duplicate
// entries are summed, which makes stencil assembly trivial.
type Builder struct {
	n    int
	rows []int32
	cols []int32
	vals []float64
}

// NewBuilder returns a Builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add accumulates v into entry (i, j). It panics on out-of-range indices,
// which always indicates a programming error in stencil assembly.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: Add(%d, %d) out of range for n=%d", i, j, b.n))
	}
	if v == 0 {
		return
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	b.vals = append(b.vals, v)
}

// AddSym accumulates a symmetric conductance g between nodes i and j:
// +g on both diagonals and -g on both off-diagonals. This is the natural
// operation when wiring two grid cells together with thermal conductance g.
func (b *Builder) AddSym(i, j int, g float64) {
	b.Add(i, i, g)
	b.Add(j, j, g)
	b.Add(i, j, -g)
	b.Add(j, i, -g)
}

// AddDiag accumulates g onto the diagonal entry (i, i) — used for conductances
// to a fixed boundary (e.g. convection to ambient).
func (b *Builder) AddDiag(i int, g float64) {
	b.Add(i, i, g)
}

// Build assembles the CSR matrix, summing duplicates. Assembly is O(nnz)
// apart from a small per-row sort: entries are bucketed by row with a
// counting pass, then each row (a handful of stencil entries) is sorted and
// deduplicated in place.
func (b *Builder) Build() *CSR { return b.build(nil) }

// entry is one coordinate entry of a row being sorted: its column, its
// insertion index (the term ID BuildFixed records) and its value.
type entry struct {
	col, term int32
	val       float64
}

// build assembles the CSR matrix and, when f is non-nil, records in f every
// term's slot (f.termSlot, len(b.vals) long) and every slot's terms in
// summation order (appended to f.slotPtr and f.slotTerm).
//
// Rows are sorted by slices.SortFunc on the column alone. It runs the same
// pdqsort as sort.Sort (both are generated from one template), so a row's
// equal columns are permuted as sort.Sort would permute them, and the
// summation order of duplicates, which thermal's TestFixedPatternBitsPinned
// pins, depends on the entry sequence alone.
func (b *Builder) build(f *Fixed) *CSR {
	n := b.n
	// Counting sort by row (stable).
	count := make([]int32, n+1)
	for _, r := range b.rows {
		count[r+1]++
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	next := append([]int32(nil), count[:n]...)
	ents := make([]entry, len(b.rows))
	for k, r := range b.rows {
		ents[next[r]] = entry{col: b.cols[k], term: int32(k), val: b.vals[k]}
		next[r]++
	}

	m := &CSR{N: n, RowPtr: make([]int32, n+1)}
	m.Col = make([]int32, 0, len(ents))
	m.Val = make([]float64, 0, len(ents))
	for i := 0; i < n; i++ {
		lo, hi := count[i], count[i+1]
		slices.SortFunc(ents[lo:hi], func(x, y entry) int { return cmp.Compare(x.col, y.col) })
		var lastC int32 = -1
		for k := lo; k < hi; k++ {
			e := ents[k]
			if e.col == lastC {
				m.Val[len(m.Val)-1] += e.val
			} else {
				m.Col = append(m.Col, e.col)
				m.Val = append(m.Val, e.val)
				lastC = e.col
				if f != nil {
					f.slotPtr = append(f.slotPtr, k)
				}
			}
			if f != nil {
				f.termSlot[e.term] = int32(len(m.Val) - 1)
				f.slotTerm = append(f.slotTerm, e.term)
			}
		}
		m.RowPtr[i+1] = int32(len(m.Col))
	}
	return m
}

// Grow makes room for n more entries, so a caller that knows its entry count
// fills the coordinate list without regrowing it.
func (b *Builder) Grow(n int) {
	b.rows = slices.Grow(b.rows, n)
	b.cols = slices.Grow(b.cols, n)
	b.vals = slices.Grow(b.vals, n)
}

// Reset clears the builder for reuse without releasing its capacity.
func (b *Builder) Reset() {
	b.rows = b.rows[:0]
	b.cols = b.cols[:0]
	b.vals = b.vals[:0]
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = A·x. y must have length N.
func (m *CSR) MulVec(y, x []float64) {
	m.mulVecRange(y, x, 0, m.N)
}

// mulVecRange computes y[i] = (A·x)[i] for rows lo ≤ i < hi. Each row is an
// independent serial dot product, so any row partition yields results
// bit-identical to the full serial MulVec. The row slices are re-sliced to a
// common length so the compiler can drop bounds checks from the inner loop.
func (m *CSR) mulVecRange(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		a, b := m.RowPtr[i], m.RowPtr[i+1]
		cols := m.Col[a:b]
		vals := m.Val[a:b]
		vals = vals[:len(cols)]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
	}
}

// Diag extracts the diagonal of the matrix.
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.Col[k]) == i {
				d[i] = m.Val[k]
				break
			}
		}
	}
	return d
}

// AddToDiag adds d[i] to each diagonal entry in place. Every row must
// already store its diagonal (true for any conductance matrix assembled with
// AddSym/AddDiag).
func (m *CSR) AddToDiag(d []float64) error {
	if len(d) != m.N {
		return fmt.Errorf("sparse: AddToDiag length %d, want %d", len(d), m.N)
	}
	for i := 0; i < m.N; i++ {
		found := false
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.Col[k]) == i {
				m.Val[k] += d[i]
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sparse: row %d stores no diagonal entry", i)
		}
	}
	return nil
}

// At returns entry (i, j) (zero when not stored).
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if int(m.Col[k]) == j {
			return m.Val[k]
		}
	}
	return 0
}

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without meeting the residual tolerance.
var ErrNoConvergence = errors.New("sparse: solver did not converge")

// Preconditioner approximates the inverse of the system matrix: Apply
// overwrites z with M⁻¹·r. For conjugate gradients to remain valid the
// operator must be linear, symmetric positive definite, and fixed for the
// duration of one solve (it may change freely between solves — the
// convergence test uses the true residual, so a stale-but-SPD preconditioner
// affects only the iteration count, never the answer).
type Preconditioner interface {
	Apply(z, r []float64)
}

// CGOptions configures the conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖. Default 1e-8.
	Tol float64
	// MaxIter caps the iteration count. Default 10·N.
	MaxIter int
	// OnIteration, when non-nil, is invoked once per iteration with the
	// residual norm ‖b−Ax‖₂ after that iteration; iteration 0 reports the
	// initial (warm-start) residual. The hook observes values the solver
	// already computes, so it cannot perturb the arithmetic; when nil the
	// only cost is one pointer test per iteration.
	OnIteration func(iter int, residual float64)
	// Precond, when non-nil, replaces the built-in Jacobi preconditioner of
	// CGSolver.Solve and SolveContext.
	// A nil Precond selects Jacobi (M = diag(A), re-read from the matrix on
	// every solve). Both run the same CG loop; only the Apply differs.
	Precond Preconditioner
	// Inject, when armed at faultinject.PointCGSolve, makes the solve fail
	// before iterating with an error matching both ErrNoConvergence and
	// faultinject.ErrInjected, exercising the thermal recovery ladder
	// deterministically in tests. A nil Injector costs one pointer test.
	Inject *faultinject.Injector
}

// SolveGaussSeidel performs symmetric Gauss-Seidel sweeps on A·x = b until the
// relative residual drops below tol or maxIter sweeps elapse. It is slower
// than CG on large systems but useful as an independent cross-check in tests.
func SolveGaussSeidel(a *CSR, x, b []float64, tol float64, maxIter int) (int, error) {
	n := a.N
	if len(x) != n || len(b) != n {
		return 0, fmt.Errorf("sparse: SolveGaussSeidel dimension mismatch")
	}
	if tol <= 0 {
		tol = 1e-8
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	diag := a.Diag()
	for i, d := range diag {
		if d == 0 {
			return 0, fmt.Errorf("sparse: zero diagonal at row %d", i)
		}
	}
	var bnorm float64
	for _, v := range b {
		bnorm += v * v
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return 0, nil
	}

	sweep := func(forward bool) {
		if forward {
			for i := 0; i < n; i++ {
				s := b[i]
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					j := int(a.Col[k])
					if j != i {
						s -= a.Val[k] * x[j]
					}
				}
				x[i] = s / diag[i]
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				s := b[i]
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					j := int(a.Col[k])
					if j != i {
						s -= a.Val[k] * x[j]
					}
				}
				x[i] = s / diag[i]
			}
		}
	}

	r := make([]float64, n)
	for it := 1; it <= maxIter; it++ {
		sweep(true)
		sweep(false)
		a.MulVec(r, x)
		var rnorm float64
		for i := range r {
			d := b[i] - r[i]
			rnorm += d * d
		}
		if math.Sqrt(rnorm) <= tol*bnorm {
			return it, nil
		}
	}
	return maxIter, ErrNoConvergence
}
