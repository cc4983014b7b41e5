package sparse

import (
	"hash/fnv"
	"math"
	"testing"
)

// solutionHash returns FNV-1a over the float64 bits of x.
func solutionHash(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinRHS returns n deterministic right-hand-side values.
func pinRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7919)%1009) / 1009
	}
	return b
}

// TestJacobiCGBitsPinned pins the bits and iteration counts of cold
// Jacobi-preconditioned (nil Precond) CG solves in absolute terms, so a
// refactor of the CG loop cannot move the reference path unnoticed. It
// covers the two regimes the Jacobi path runs in: CGSolver on a serial-size
// system, and CGSolver on a system at ParallelThresholdRows (row-parallel
// products whenever GOMAXPROCS ≥ 2). The hashes were taken with the
// hand-fused Jacobi loop CGSolver carried before Jacobi became a
// Preconditioner, so they also prove that change bit-identical. Solutions
// must not depend on GOMAXPROCS; CI runs this test at 1 and 4.
func TestJacobiCGBitsPinned(t *testing.T) {
	opt := CGOptions{Tol: 1e-9}
	for _, tc := range []struct {
		name      string
		g, l      int
		wantIters int
		wantHash  uint64
	}{
		{"serial", 16, 4, 98, 0x4b9185b76a3cc625},
		{"parallel-size", 32, 16, 230, 0x60fc06c3d89956ca}, // ParallelThresholdRows rows
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := grid3D(tc.g, tc.l)
			x := make([]float64, a.N)
			it, err := NewCGSolver(a).Solve(x, pinRHS(a.N), opt)
			if err != nil {
				t.Fatal(err)
			}
			if h := solutionHash(x); it != tc.wantIters || h != tc.wantHash {
				t.Errorf("%d iterations, hash %#x; want %d, %#x", it, h, tc.wantIters, tc.wantHash)
			}
		})
	}
}
