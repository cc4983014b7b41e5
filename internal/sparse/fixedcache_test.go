package sparse

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// samePattern reports whether two Fixed instances share every pattern array.
func samePattern(a, b *Fixed) bool {
	same := func(x, y []int32) bool { return len(x) > 0 && &x[0] == &y[0] }
	return same(a.Mat.RowPtr, b.Mat.RowPtr) && same(a.Mat.Col, b.Mat.Col) &&
		same(a.termSlot, b.termSlot) && same(a.slotPtr, b.slotPtr) && same(a.slotTerm, b.slotTerm)
}

// TestBuildFixedCacheHit: a repeat build of one (row, col) sequence, here
// with different values, shares the cached pattern arrays, owns its values
// and terms, and equals an uncached build bit for bit; rewriting a term of
// one instance leaves the other unchanged. A sequence that differs only in
// its columns misses.
func TestBuildFixedCacheHit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 60
	b, seq := randPattern(n, 400, rng)
	first := b.BuildFixed()
	vals := make([]float64, len(seq))
	for k := range vals {
		vals[k] = 0.5 + rng.Float64()
	}
	b2 := NewBuilder(n)
	for k, ij := range seq {
		b2.Add(ij[0], ij[1], vals[k])
	}
	second := b2.BuildFixed()
	if !samePattern(first, second) {
		t.Fatal("repeat build of one sequence does not share the cached pattern")
	}
	if &first.Mat.Val[0] == &second.Mat.Val[0] || &first.terms[0] == &second.terms[0] {
		t.Fatal("repeat build shares its values")
	}
	ref := b2.fixedPattern()
	if samePattern(second, ref) {
		t.Fatal("fixedPattern returned the cached arrays")
	}
	sameCSR(t, second.Mat, b2.Build())
	if !slices.Equal(second.termSlot, ref.termSlot) || !slices.Equal(second.slotPtr, ref.slotPtr) || !slices.Equal(second.slotTerm, ref.slotTerm) {
		t.Fatal("cached term bookkeeping differs from an uncached build")
	}

	second.SetTerm(0, 123.5)
	second.RefreshSlot(second.TermSlot(0))
	sameCSR(t, first.Mat, b.Build())
	vals[0] = 123.5
	sameCSR(t, second.Mat, replay(n, seq, vals))
	first.SetTerm(1, 7.25)
	first.RefreshAll()
	sameCSR(t, second.Mat, replay(n, seq, vals))

	// Same order, same rows and entry count, other columns: a miss.
	b3 := NewBuilder(n)
	for k, ij := range seq {
		b3.Add(ij[0], (ij[1]+1)%n, vals[k])
	}
	third := b3.BuildFixed()
	if samePattern(first, third) {
		t.Fatal("a different column sequence hit the cached pattern")
	}
	sameCSR(t, third.Mat, b3.Build())
}

// TestBuildFixedCacheBounded: the pattern cache holds at most fixedCacheMax
// entries, and an evicted pattern still builds correctly.
func TestBuildFixedCacheBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var builders []*Builder
	for k := 0; k < fixedCacheMax+3; k++ {
		b, _ := randPattern(30+k, 200, rng)
		builders = append(builders, b)
		b.BuildFixed()
		fixedCache.Lock()
		m, order := len(fixedCache.m), len(fixedCache.order)
		fixedCache.Unlock()
		if m > fixedCacheMax || m != order {
			t.Fatalf("after %d patterns the cache holds %d entries (%d in order), cap %d", k+1, m, order, fixedCacheMax)
		}
	}
	sameCSR(t, builders[0].BuildFixed().Mat, builders[0].Build())
}

// TestBuildFixedConcurrent: concurrent builds of two sequences, first use
// included, each give the matrix Build gives. Run under -race.
func TestBuildFixedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var bs [2]*Builder
	for k := range bs {
		bs[k], _ = randPattern(80+k, 600, rng)
	}
	const workers = 8
	got := make([]*Fixed, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = bs[w%2].BuildFixed()
		}()
	}
	wg.Wait()
	for w, f := range got {
		sameCSR(t, f.Mat, bs[w%2].Build())
		if !samePattern(f, got[w%2]) {
			t.Errorf("worker %d does not share the pattern of worker %d", w, w%2)
		}
	}
}
