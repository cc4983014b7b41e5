package thermal

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"tap25d/internal/geom"
	"tap25d/internal/material"
	"tap25d/internal/sparse"
)

// applyBitsHash returns FNV-1a over the float64 bits of one V-cycle applied
// to r.
func applyBitsHash(mg *sparse.Multigrid, r []float64) uint64 {
	z := make([]float64, len(r))
	mg.Apply(z, r)
	h := fnv.New64a()
	var b [8]byte
	for _, v := range z {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMultigridApplyBitsPinned pins the bits of the multigrid V-cycle on real
// thermal matrices, whose TIM, spreader and sink couplings leave the vertical
// column. A storage-order or loop refactor of sparse.Multigrid must keep
// every floating-point operation in its order, so CG iterates, and with them
// SA trajectories, stay unchanged; a change that reorders the arithmetic on
// purpose re-pins the hashes once, after TestSplitSmootherAgreesWithUnsplitCycle
// shows it is the same operator. The grids cover each hierarchy shape: 16
// and 64 coarsen to a 4×4 Cholesky level, 17 cannot coarsen (one level, GS
// fallback), and 24 ends at a 6×6 Cholesky level. Each grid is hashed after
// the first solve and again after one chiplet move, whose solve refreshes
// the hierarchy incrementally.
func TestMultigridApplyBitsPinned(t *testing.T) {
	want := map[int][2]uint64{
		16: {0x834fd70f3cf2130f, 0x956a664ad9a94b9d},
		17: {0x325f665cafd4d7c4, 0x1539cd6e18c70225},
		24: {0xa1f9ee4726f1a27c, 0x8e0c78aa74c11d84},
		64: {0xd0b98217962eac20, 0x9d1fdd8cb851f7a7},
	}
	pc := precondCases()[1] // cpudram
	stack := material.DefaultStackFor(pc.w, pc.h)
	for _, g := range []int{16, 17, 24, 64} {
		m, err := NewModel(pc.w, pc.h, Options{Grid: g, Stack: &stack, Precond: precondMG})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Solve(pc.sources); err != nil {
			t.Fatal(err)
		}
		r := make([]float64, m.nNodes)
		for i := range r {
			r[i] = float64((i*7919)%1009)/1009 - 0.5
		}
		var got [2]uint64
		got[0] = applyBitsHash(m.mg, r)
		moved := append([]Source(nil), pc.sources...)
		moved[4].Rect.Center = geom.Point{X: 6.5, Y: 4.5} // DRAM0 away from its corner
		if _, err := m.Solve(moved); err != nil {
			t.Fatal(err)
		}
		if s := m.mg.Setups(); s != 2 {
			t.Fatalf("grid %d: %d multigrid setups, want the build and one refresh", g, s)
		}
		got[1] = applyBitsHash(m.mg, r)
		if got != want[g] {
			t.Errorf("grid %d: Apply hashes %#x, want %#x", g, got, want[g])
		}
	}
}

// BenchmarkMultigridApply times one V-cycle on the CPU-DRAM thermal matrix at
// the paper grid and at grid 128.
func BenchmarkMultigridApply(b *testing.B) {
	pc := precondCases()[1] // cpudram
	stack := material.DefaultStackFor(pc.w, pc.h)
	for _, g := range []int{64, 128} {
		b.Run(fmt.Sprintf("grid%d", g), func(b *testing.B) {
			m, err := NewModel(pc.w, pc.h, Options{Grid: g, Stack: &stack, Precond: precondMG})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Solve(pc.sources); err != nil {
				b.Fatal(err)
			}
			r := make([]float64, m.nNodes)
			for i := range r {
				r[i] = float64((i*7919)%1009)/1009 - 0.5
			}
			z := make([]float64, len(r))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.mg.Apply(z, r)
			}
		})
	}
}

// BenchmarkMultigridBuild times one fresh hierarchy (NewMultigrid over a
// cached symbolic structure: allocation plus a full Refresh) on the CPU-DRAM
// thermal matrix, the set-up every batched corner screen pays.
func BenchmarkMultigridBuild(b *testing.B) {
	pc := precondCases()[1] // cpudram
	stack := material.DefaultStackFor(pc.w, pc.h)
	for _, g := range []int{64, 128} {
		b.Run(fmt.Sprintf("grid%d", g), func(b *testing.B) {
			m, err := NewModel(pc.w, pc.h, Options{Grid: g, Stack: &stack, Precond: precondMG})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Solve(pc.sources); err != nil {
				b.Fatal(err)
			}
			geo := sparse.GridGeometry{Layers: m.nDevLayers + 2, Nx: g, Ny: g}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sparse.NewMultigrid(m.fixed.Mat, geo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
