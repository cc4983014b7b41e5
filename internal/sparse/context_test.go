package sparse

import (
	"context"
	"errors"
	"testing"

	"tap25d/internal/faultinject"
)

// chainSystem builds the 1-D Laplacian chain — SPD with condition number
// ~n², so cold-started CG needs many iterations.
func chainSystem(n int) (*CSR, []float64) {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2.0001)
		if i+1 < n {
			b.Add(i, i+1, -1)
			b.Add(i+1, i, -1)
		}
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	return b.Build(), rhs
}

func TestSolveCGContextCanceled(t *testing.T) {
	a, rhs := chainSystem(512)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, a.N)
	it, err := NewCGSolver(a).SolveContext(ctx, x, rhs, CGOptions{Tol: 1e-12})
	if err == nil {
		t.Fatal("canceled solve returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if it != 0 {
		t.Fatalf("canceled after %d iterations, want 0: the first poll comes before the first iteration", it)
	}
}

// TestSolveCGContextCanceledMidSolve: the poll runs before every iteration,
// so a context canceled during iteration k stops the solve after exactly k
// iterations.
func TestSolveCGContextCanceledMidSolve(t *testing.T) {
	a, rhs := chainSystem(512)
	const k = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := CGOptions{Tol: 1e-12, OnIteration: func(it int, _ float64) {
		if it == k {
			cancel()
		}
	}}
	it, err := NewCGSolver(a).SolveContext(ctx, make([]float64, a.N), rhs, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if it != k {
		t.Fatalf("canceled after %d iterations, want %d", it, k)
	}
}

// TestSolveCGContextUncanceledBitIdentical: the polling must not perturb the
// arithmetic — with a live context the iterate stream is exactly Solve's.
func TestSolveCGContextUncanceledBitIdentical(t *testing.T) {
	a, rhs := chainSystem(200)
	x1 := make([]float64, a.N)
	x2 := make([]float64, a.N)
	it1, err1 := NewCGSolver(a).Solve(x1, rhs, CGOptions{})
	it2, err2 := NewCGSolver(a).SolveContext(context.Background(), x2, rhs, CGOptions{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if it1 != it2 {
		t.Fatalf("iteration counts differ: %d vs %d", it1, it2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("x[%d] differs: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestCGInjectedFaultMatchesNoConvergence(t *testing.T) {
	a, bvec := chainSystem(64)
	n := a.N
	inj := faultinject.New(1)
	inj.Arm(faultinject.PointCGSolve, faultinject.Spec{At: 2})

	x := make([]float64, n)
	opt := CGOptions{Inject: inj}
	// First solve passes through untouched.
	if _, err := NewCGSolver(a).Solve(x, bvec, opt); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	// Second solve hits the armed point; the error must look like a real
	// non-convergence AND be identifiable as injected.
	x2 := make([]float64, n)
	_, err := NewCGSolver(a).Solve(x2, bvec, opt)
	if err == nil {
		t.Fatal("armed injector did not fire")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("injected fault %v does not match ErrNoConvergence", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("injected fault %v does not match faultinject.ErrInjected", err)
	}
	// Third solve passes again (At fires exactly once).
	x3 := make([]float64, n)
	if _, err := NewCGSolver(a).Solve(x3, bvec, opt); err != nil {
		t.Fatalf("third solve: %v", err)
	}
}
