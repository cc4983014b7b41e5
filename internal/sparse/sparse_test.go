package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// laplacian1D builds the n-node 1D Laplacian with unit conductances and a
// grounding conductance g0 on node 0, which makes it SPD.
func laplacian1D(n int, g0 float64) *CSR {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(i, i+1, 1)
	}
	b.AddDiag(0, g0)
	return b.Build()
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(1, 1, 1)
	m := b.Build()
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(1, 1); got != 1 {
		t.Errorf("At(1,1) = %v, want 1", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %v, want 0", got)
	}
}

func TestBuilderZeroIgnored(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 0)
	m := b.Build()
	if m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0", m.NNZ())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range index")
		}
	}()
	NewBuilder(2).Add(2, 0, 1)
}

func TestAddSymStructure(t *testing.T) {
	b := NewBuilder(3)
	b.AddSym(0, 2, 4)
	m := b.Build()
	if m.At(0, 0) != 4 || m.At(2, 2) != 4 {
		t.Error("diagonals wrong")
	}
	if m.At(0, 2) != -4 || m.At(2, 0) != -4 {
		t.Error("off-diagonals wrong")
	}
	// Row sums of a pure AddSym matrix must be zero (Kirchhoff).
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	m.MulVec(y, x)
	for i, v := range y {
		if math.Abs(v) > 1e-12 {
			t.Errorf("row %d sum = %v, want 0", i, v)
		}
	}
}

func TestMulVec(t *testing.T) {
	// [2 -1; -1 2] * [1; 2] = [0; 3]
	b := NewBuilder(2)
	b.Add(0, 0, 2)
	b.Add(0, 1, -1)
	b.Add(1, 0, -1)
	b.Add(1, 1, 2)
	m := b.Build()
	y := make([]float64, 2)
	m.MulVec(y, []float64{1, 2})
	if y[0] != 0 || y[1] != 3 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestDiag(t *testing.T) {
	m := laplacian1D(4, 0.5)
	d := m.Diag()
	want := []float64{1.5, 2, 2, 1}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Errorf("Diag[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func randSPD(n int, rng *rand.Rand) (*CSR, []float64) {
	// Random grid-like SPD: 1D chain with random positive conductances plus
	// random grounding, so it's strictly diagonally dominant.
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(i, i+1, 0.1+rng.Float64())
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 || i == 0 {
			b.AddDiag(i, 0.05+rng.Float64())
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return b.Build(), x
}

func TestSolveCGRecoversSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(100)
		a, want := randSPD(n, rng)
		rhs := make([]float64, n)
		a.MulVec(rhs, want)
		got := make([]float64, n)
		if _, err := NewCGSolver(a).Solve(got, rhs, CGOptions{Tol: 1e-10}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, want := randSPD(200, rng)
	rhs := make([]float64, 200)
	a.MulVec(rhs, want)

	cold := make([]float64, 200)
	itCold, err := NewCGSolver(a).Solve(cold, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution should converge immediately.
	warm := make([]float64, 200)
	copy(warm, want)
	itWarm, err := NewCGSolver(a).Solve(warm, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if itWarm > itCold {
		t.Errorf("warm start took %d iters, cold %d", itWarm, itCold)
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	a := laplacian1D(10, 1)
	x := make([]float64, 10)
	for i := range x {
		x[i] = 5
	}
	it, err := NewCGSolver(a).Solve(x, make([]float64, 10), CGOptions{})
	if err != nil || it != 0 {
		t.Fatalf("zero RHS: it=%d err=%v", it, err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS should give zero solution")
		}
	}
}

func TestSolveCGDimensionMismatch(t *testing.T) {
	a := laplacian1D(4, 1)
	if _, err := NewCGSolver(a).Solve(make([]float64, 3), make([]float64, 4), CGOptions{}); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestSolveCGRejectsNonSPD(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, -1)
	b.Add(1, 1, 1)
	a := b.Build()
	if _, err := NewCGSolver(a).Solve(make([]float64, 2), []float64{1, 1}, CGOptions{}); err == nil {
		t.Error("expected non-SPD error")
	}
}

func TestSolveCGNoConvergence(t *testing.T) {
	a := laplacian1D(50, 1e-9) // nearly singular
	rhs := make([]float64, 50)
	rhs[25] = 1
	_, err := NewCGSolver(a).Solve(make([]float64, 50), rhs, CGOptions{Tol: 1e-14, MaxIter: 2})
	if err != ErrNoConvergence {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestGaussSeidelAgreesWithCG(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, want := randSPD(80, rng)
	rhs := make([]float64, 80)
	a.MulVec(rhs, want)

	xc := make([]float64, 80)
	if _, err := NewCGSolver(a).Solve(xc, rhs, CGOptions{Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	xg := make([]float64, 80)
	if _, err := SolveGaussSeidel(a, xg, rhs, 1e-10, 100000); err != nil {
		t.Fatal(err)
	}
	for i := range xc {
		if math.Abs(xc[i]-xg[i]) > 1e-4*(1+math.Abs(xc[i])) {
			t.Fatalf("solvers disagree at %d: CG %v GS %v", i, xc[i], xg[i])
		}
	}
}

func TestGaussSeidelZeroDiagonal(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	a := b.Build()
	if _, err := SolveGaussSeidel(a, make([]float64, 2), []float64{1, 1}, 1e-8, 10); err == nil {
		t.Error("expected zero-diagonal error")
	}
}

func TestGaussSeidelZeroRHS(t *testing.T) {
	a := laplacian1D(5, 1)
	x := []float64{1, 2, 3, 4, 5}
	if _, err := SolveGaussSeidel(a, x, make([]float64, 5), 1e-8, 10); err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS should zero the solution")
		}
	}
}

func BenchmarkCG2DGrid64(b *testing.B) {
	// 64x64 5-point Laplacian with grounding — representative of one thermal
	// layer at the paper's grid resolution.
	const n = 64
	bl := NewBuilder(n * n)
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i+1 < n {
				bl.AddSym(id(i, j), id(i+1, j), 1)
			}
			if j+1 < n {
				bl.AddSym(id(i, j), id(i, j+1), 1)
			}
			bl.AddDiag(id(i, j), 0.01)
		}
	}
	a := bl.Build()
	rhs := make([]float64, n*n)
	rhs[id(n/2, n/2)] = 100
	x := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := NewCGSolver(a).Solve(x, rhs, CGOptions{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}
