package sparse

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"tap25d/internal/faultinject"
)

// ParallelThresholdRows is the matrix size above which CGSolver partitions
// its matrix-vector products across goroutines. Small systems stay serial:
// below this size the per-product goroutine wake-up costs more than the
// arithmetic it distributes. Row partitioning computes each row exactly as
// the serial kernel does, so parallel products are bit-identical to serial
// ones for any worker count.
var ParallelThresholdRows = 16384

// parallelGrainRows is the row count each parallel worker should own. The
// worker count is derived from the matrix size instead of jumping straight to
// GOMAXPROCS at the threshold: a conductance-matrix row holds ~7 stored
// entries, so 8192 rows are roughly one megabyte of matrix data and tens of
// microseconds of work — enough to amortize a goroutine wake-up (~µs) many
// times over. A fixed GOMAXPROCS fan-out is mis-sized at both ends: at the
// 16384-row threshold it hands each of (say) 16 workers a ~1000-row sliver
// dominated by scheduling, while a 256×256 thermal grid (524288 rows) has
// plenty of rows to feed every core at full grain.
const parallelGrainRows = 8192

// parallelWorkers returns the worker count for n-row matrix-vector products:
// one worker per parallelGrainRows rows, capped at GOMAXPROCS, and serial
// below ParallelThresholdRows. The answer only picks a row partition, which
// is bit-identical to serial for any count.
func parallelWorkers(n int) int {
	if n < ParallelThresholdRows {
		return 1
	}
	w := n / parallelGrainRows
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 2 {
		return 1
	}
	return w
}

// MulVecParallel computes y = A·x with rows partitioned across workers
// goroutines. Each row's dot product runs exactly as in the serial kernel, so
// the result is bit-identical to MulVec regardless of worker count. workers
// values below 2 fall back to the serial path.
func (m *CSR) MulVecParallel(y, x []float64, workers int) {
	if workers > m.N {
		workers = m.N
	}
	if workers < 2 {
		m.MulVec(y, x)
		return
	}
	chunk := (m.N + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < m.N; lo += chunk {
		hi := lo + chunk
		if hi > m.N {
			hi = m.N
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.mulVecRange(y, x, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// CGSolver is a reusable preconditioned conjugate-gradient solver bound to
// one matrix; the preconditioner is opt.Precond, or Jacobi when that is nil.
// It exists because the placer's inner loop calls the solver thousands of
// times on a matrix whose pattern never changes: the solver allocates its
// scratch vectors (residual, preconditioned residual, search direction, A·p
// product, inverse diagonal) once, and locates the diagonal value slots
// once, instead of re-deriving all of them on every SolveCG call. Values of
// the bound matrix may change freely between Solve calls (the Jacobi
// diagonal is re-read each time); the pattern must not.
//
// A CGSolver is not safe for concurrent use.
type CGSolver struct {
	a        *CSR
	diagSlot []int32 // per-row index into a.Val of the diagonal, -1 if absent

	invD, r, z, p, ap []float64
	workers           int
}

// NewCGSolver prepares a reusable solver for a. The pattern of a is frozen
// from the solver's point of view; its values may be updated in place between
// Solve calls.
func NewCGSolver(a *CSR) *CGSolver {
	n := a.N
	s := &CGSolver{
		a:        a,
		diagSlot: make([]int32, n),
		invD:     make([]float64, n),
		r:        make([]float64, n),
		z:        make([]float64, n),
		p:        make([]float64, n),
		ap:       make([]float64, n),
		workers:  1,
	}
	for i := 0; i < n; i++ {
		s.diagSlot[i] = -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i {
				s.diagSlot[i] = k
				break
			}
		}
	}
	s.workers = parallelWorkers(n)
	return s
}

// mulVec computes y = A·x with the solver's worker setting.
func (s *CGSolver) mulVec(y, x []float64) {
	if s.workers > 1 {
		s.a.MulVecParallel(y, x, s.workers)
	} else {
		s.a.MulVec(y, x)
	}
}

// mulVecDot computes y = A·x and returns dot(w, y). The dot accumulates in
// row order, so the result is bit-identical to a separate MulVec followed by
// a serial dot product.
//
// The serial path gathers through raw pointers: the column index c is
// data-dependent, so the x[c] bounds check cannot be proven away, and this
// loop is the single hottest in the annealer (it runs once per CG iteration
// over every stored entry). Safety rests on the CSR invariants — RowPtr
// ascending within [0, nnz], every Col entry in [0, N) — which Build and
// BuildFixed establish and nothing mutates.
func (s *CGSolver) mulVecDot(y, x, w []float64) float64 {
	a := s.a
	if s.workers > 1 {
		a.MulVecParallel(y, x, s.workers)
		var d float64
		for i, v := range y {
			d += w[i] * v
		}
		return d
	}
	n := a.N
	rowPtr := a.RowPtr
	colp := unsafe.Pointer(unsafe.SliceData(a.Col))
	valp := unsafe.Pointer(unsafe.SliceData(a.Val))
	xp := unsafe.Pointer(unsafe.SliceData(x))
	y = y[:n]
	w = w[:n]
	var d float64
	lo := int(rowPtr[0])
	for i := 0; i < n; i++ {
		hi := int(rowPtr[i+1])
		var sum float64
		k := lo
		// Two elements per trip halves the loop bookkeeping; the two adds
		// into sum stay sequential, so the accumulation order — and thus the
		// rounded result — is exactly that of the one-element loop.
		for ; k+1 < hi; k += 2 {
			c0 := int(*(*int32)(unsafe.Add(colp, uintptr(k)*4)))
			c1 := int(*(*int32)(unsafe.Add(colp, uintptr(k+1)*4)))
			v0 := *(*float64)(unsafe.Add(valp, uintptr(k)*8))
			v1 := *(*float64)(unsafe.Add(valp, uintptr(k+1)*8))
			sum += v0 * *(*float64)(unsafe.Add(xp, uintptr(c0)*8))
			sum += v1 * *(*float64)(unsafe.Add(xp, uintptr(c1)*8))
		}
		if k < hi {
			c := int(*(*int32)(unsafe.Add(colp, uintptr(k)*4)))
			sum += *(*float64)(unsafe.Add(valp, uintptr(k)*8)) *
				*(*float64)(unsafe.Add(xp, uintptr(c)*8))
		}
		y[i] = sum
		d += w[i] * sum
		lo = hi
	}
	return d
}

// Solve solves A·x = b with x as the warm-start initial guess, overwriting x
// with the solution and returning the iteration count. The arithmetic —
// preconditioning, update order, convergence checks — reproduces SolveCG
// exactly, so a reused CGSolver returns bit-identical solutions; only the
// scratch allocations and diagonal extraction are hoisted out of the call.
func (s *CGSolver) Solve(x, b []float64, opt CGOptions) (int, error) {
	return s.SolveContext(context.Background(), x, b, opt)
}

// cancelCheckInterval is how many CG iterations run between ctx.Err() polls.
// Thermal solves warm-started by the annealer converge in a handful of
// iterations, so a modest interval keeps cancellation latency at a few
// matrix-vector products while adding no measurable per-iteration cost.
const cancelCheckInterval = 32

// SolveContext is Solve with cooperative cancellation: the outer CG loop
// polls ctx every cancelCheckInterval iterations and returns ctx.Err()
// (wrapped) when the context is done, leaving x holding the current iterate.
// The polling does not touch the arithmetic, so an uncancelled SolveContext
// is bit-identical to Solve.
func (s *CGSolver) SolveContext(ctx context.Context, x, b []float64, opt CGOptions) (int, error) {
	a := s.a
	n := a.N
	if len(x) != n || len(b) != n {
		return 0, fmt.Errorf("sparse: SolveCG dimension mismatch: n=%d len(x)=%d len(b)=%d", n, len(x), len(b))
	}
	if err := opt.Inject.Hit(faultinject.PointCGSolve); err != nil {
		// An injected fault presents exactly like exhausting the iteration
		// budget, so the recovery ladder above treats it as the real thing.
		return 0, fmt.Errorf("sparse: %w: %w", ErrNoConvergence, err)
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}

	pre := opt.Precond
	if pre == nil {
		// Refresh the Jacobi preconditioner from the (possibly updated)
		// diagonal: O(N) via the precomputed slots instead of an O(nnz) scan.
		for i, slot := range s.diagSlot {
			d := 0.0
			if slot >= 0 {
				d = a.Val[slot]
			}
			if d <= 0 {
				return 0, fmt.Errorf("sparse: non-positive diagonal at row %d (%g); matrix not SPD", i, d)
			}
			s.invD[i] = 1 / d
		}
		pre = jacobi(s.invD)
	}

	x, b = x[:n], b[:n]
	r, z, p, ap := s.r[:n], s.z[:n], s.p[:n], s.ap[:n]

	s.mulVec(r, x)
	var bnorm, rnorm0 float64
	for i := range r {
		r[i] = b[i] - r[i]
		bnorm += b[i] * b[i]
		rnorm0 += r[i] * r[i]
	}
	bnorm = math.Sqrt(bnorm)
	if opt.OnIteration != nil {
		opt.OnIteration(0, math.Sqrt(rnorm0))
	}
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return 0, nil
	}
	if math.Sqrt(rnorm0) <= tol*bnorm {
		return 0, nil // warm start already converged
	}

	pre.Apply(z, r)
	var rz float64
	for i := range z {
		rz += r[i] * z[i]
	}
	if rz <= 0 {
		return 0, fmt.Errorf("sparse: r'M⁻¹r = %g <= 0; preconditioner not positive definite", rz)
	}
	copy(p, z)

	for it := 1; it <= maxIter; it++ {
		if it%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return it, fmt.Errorf("sparse: CG canceled after %d iterations: %w", it-1, err)
			}
		}
		pap := s.mulVecDot(ap, p, p)
		if pap <= 0 {
			return it, fmt.Errorf("sparse: p'Ap = %g <= 0; matrix not SPD", pap)
		}
		alpha := rz / pap
		var rnorm float64
		for i := range x {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			rnorm += ri * ri
		}
		res := math.Sqrt(rnorm)
		if opt.OnIteration != nil {
			opt.OnIteration(it, res)
		}
		if res <= tol*bnorm {
			return it, nil
		}
		pre.Apply(z, r)
		var rzNew float64
		for i := range z {
			rzNew += r[i] * z[i]
		}
		if rzNew <= 0 {
			return it, fmt.Errorf("sparse: r'M⁻¹r = %g <= 0; preconditioner not positive definite", rzNew)
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return maxIter, ErrNoConvergence
}

// jacobi is the default preconditioner, M = diag(A): z = D⁻¹·r, one scaling
// per row from the stored inverse diagonal.
type jacobi []float64

func (invD jacobi) Apply(z, r []float64) {
	z, r = z[:len(invD)], r[:len(invD)]
	for i, d := range invD {
		z[i] = d * r[i]
	}
}
