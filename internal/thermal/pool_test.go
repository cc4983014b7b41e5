package thermal

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"tap25d/internal/geom"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
)

// emptyPool drops every idle model, so a test starts from an empty pool.
func emptyPool() {
	modelPool.Lock()
	modelPool.keys = nil
	modelPool.Unlock()
}

// idleCount returns how many idle models the pool holds for m's key.
func idleCount(m *Model) int {
	modelPool.Lock()
	defer modelPool.Unlock()
	for _, e := range modelPool.keys {
		if e.key.equal(&m.modelKey) {
			return len(e.idle)
		}
	}
	return 0
}

// TestAcquireMatchesNewModel: a pooled model whose last solve was a steady,
// transient or liquid solve of placement X solves placement Y exactly as a
// private NewModel's first solve of Y does, in field bits, iterations and
// counters; a model whose solve failed, on a negative power or a canceled
// steady, transient or liquid solve, does not go back to the pool.
func TestAcquireMatchesNewModel(t *testing.T) {
	grids := []int{16, 17, 64}
	if !testing.Short() {
		grids = append(grids, 128)
	}
	pc := precondCases()[1] // cpudram
	x := pc.sources
	y := append([]Source(nil), x...)
	y[4].Rect.Center = geom.Point{X: 6.5, Y: 4.5} // DRAM0 away from its corner
	bad := append([]Source{{Rect: y[0].Rect, Power: -1}}, y[1:]...)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, grid := range grids {
		t.Run(fmt.Sprint(grid), func(t *testing.T) {
			emptyPool()
			stack := material.DefaultStackFor(pc.w, pc.h)
			opt := Options{Grid: grid, Stack: &stack}
			acquire := func() (*Model, *metrics.Counters) {
				t.Helper()
				var ctr metrics.Counters
				o := opt
				o.Counters = &ctr
				m, err := Acquire(pc.w, pc.h, o)
				if err != nil {
					t.Fatal(err)
				}
				return m, &ctr
			}

			var freshCtr metrics.Counters
			fresh, err := NewModel(pc.w, pc.h, Options{Grid: grid, Stack: &stack, Counters: &freshCtr})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Solve(y)
			if err != nil {
				t.Fatal(err)
			}

			for _, last := range []struct {
				name  string
				solve func(m *Model) error
			}{
				{"steady", func(m *Model) error { _, err := m.Solve(x); return err }},
				{"transient", func(m *Model) error { _, err := m.SolveTransient(context.Background(), x, 0.02, 3); return err }},
				{"liquid", func(m *Model) error { _, err := m.SolveLiquid(context.Background(), x, LiquidCooling{}); return err }},
			} {
				m, _ := acquire()
				if err := last.solve(m); err != nil {
					t.Fatalf("%s: %v", last.name, err)
				}
				m.Release()

				p, ctr := acquire()
				if p != m {
					t.Fatalf("after a %s solve: Acquire built a new model while one was idle", last.name)
				}
				got, err := p.Solve(y)
				if err != nil {
					t.Fatal(err)
				}
				if got.Iterations != want.Iterations {
					t.Errorf("after a %s solve: pooled model took %d iterations, new model %d", last.name, got.Iterations, want.Iterations)
				}
				for c, v := range want.ChipTempC {
					if math.Float64bits(got.ChipTempC[c]) != math.Float64bits(v) {
						t.Fatalf("after a %s solve: cell %d: pooled model %v C, new model %v C", last.name, c, got.ChipTempC[c], v)
					}
				}
				if *ctr != freshCtr {
					t.Errorf("after a %s solve: pooled model counted %+v, new model %+v", last.name, *ctr, freshCtr)
				}
				p.Release()
			}

			for _, fail := range []struct {
				name  string
				solve func(m *Model) error
			}{
				{"negative power", func(m *Model) error { _, err := m.Solve(bad); return err }},
				{"canceled context", func(m *Model) error { _, err := m.SolveContext(canceled, y); return err }},
				{"canceled transient", func(m *Model) error { _, err := m.SolveTransient(canceled, y, 0.02, 3); return err }},
				{"canceled liquid", func(m *Model) error { _, err := m.SolveLiquid(canceled, y, LiquidCooling{}); return err }},
			} {
				q, _ := acquire()
				if err := fail.solve(q); err == nil {
					t.Fatalf("%s: solve succeeded", fail.name)
				}
				q.Release()
				if n := idleCount(q); n != 0 {
					t.Errorf("%s: pool holds %d idle models after a failed solve", fail.name, n)
				}
			}
		})
	}
}

// TestPoolConcurrentAcquireRelease: eight goroutines acquire, solve and
// release models of one construction at GOMAXPROCS 4; every solve equals a
// private model's and the pool ends within its bound. Run under -race.
func TestPoolConcurrentAcquireRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	emptyPool()
	const workers, rounds, grid = 8, 4, 12
	srcs := func(k int) []Source {
		return []Source{
			{Rect: geom.Rect{Center: geom.Point{X: 12 + float64(k%5), Y: 12}, W: 8, H: 6}, Power: 90},
			{Rect: geom.Rect{Center: geom.Point{X: 30, Y: 14 + float64(k%3)}, W: 5, H: 9}, Power: 140},
		}
	}
	want := make([]float64, workers)
	for k := range want {
		r, err := newTestModel(t, grid).Solve(srcs(k))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = r.PeakC
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var ctr metrics.Counters
				m, err := Acquire(45, 45, Options{Grid: grid, Counters: &ctr})
				if err != nil {
					t.Error(err)
					return
				}
				r, err := m.Solve(srcs(k))
				m.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(r.PeakC) != math.Float64bits(want[k]) || ctr.ThermalSolves != 1 {
					t.Errorf("worker %d round %d: %v C after %d solves, want %v C after 1", k, i, r.PeakC, ctr.ThermalSolves, want[k])
				}
			}
		}(k)
	}
	wg.Wait()
	m, err := NewModel(45, 45, Options{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if n := idleCount(m); n < 1 || n > 4 {
		t.Errorf("pool holds %d idle models after the workers finished, want 1 to 4", n)
	}
}

// TestPoolBounds: the pool keeps at most GOMAXPROCS idle models per key,
// dropping the oldest, hands out the most recently released first, keeps a
// model released twice once, and holds at most poolKeysMax keys, evicting
// the oldest.
func TestPoolBounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	emptyPool()
	defer emptyPool()
	build := func(w float64) *Model {
		t.Helper()
		m, err := NewModel(w, 45, Options{Grid: 8})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ms := []*Model{build(45), build(45), build(45)}
	for _, m := range ms {
		m.Release()
	}
	ms[2].Release()
	if n := idleCount(ms[0]); n != 2 {
		t.Errorf("pool holds %d idle models of one key at GOMAXPROCS 2, want 2", n)
	}
	for _, want := range []*Model{ms[2], ms[1]} {
		if got, err := Acquire(45, 45, Options{Grid: 8}); err != nil || got != want {
			t.Fatalf("Acquire = %p, %v; want the most recently released idle model %p", got, err, want)
		}
	}
	if got, err := Acquire(45, 45, Options{Grid: 8}); err != nil || got == ms[0] {
		t.Fatalf("Acquire = %p, %v; want a new model, the oldest idle one was dropped", got, err)
	}

	for w := 45.0; w < 45+poolKeysMax+1; w++ {
		build(w).Release()
	}
	modelPool.Lock()
	keys := len(modelPool.keys)
	oldest := modelPool.keys[0].key.widthMM
	modelPool.Unlock()
	if keys != poolKeysMax || oldest != 46 {
		t.Errorf("pool holds %d keys, the oldest %v mm wide; want %d, the 45 mm key evicted", keys, oldest, poolKeysMax)
	}
}
