package sparse

import (
	"slices"
	"sync"
)

// Fixed is a CSR matrix with a frozen sparsity pattern whose values can be
// updated in place, term by term. It is built once from a Builder's full
// coordinate list (BuildFixed) and then supports two operations the thermal
// solver's inner loop needs:
//
//   - SetTerm rewrites the value of one original Add entry ("term");
//   - RefreshSlot recomputes one stored CSR value as the sum of its terms.
//
// The summation order of each slot is recorded at build time as the exact
// order Builder.Build would have summed the duplicate entries, so a Fixed
// whose terms are rewritten and whose slots are refreshed holds values
// bit-identical to a from-scratch Build over the same entries. That property
// is what lets the thermal model's delta-assembly path reproduce the full
// rebuild exactly, keeping simulated-annealing trajectories reproducible to
// the last bit.
type Fixed struct {
	// Mat is the live matrix; its Val entries are rewritten by RefreshSlot.
	Mat *CSR

	terms    []float64 // current value of each original Add entry
	termSlot []int32   // term index -> slot (index into Mat.Val)
	slotPtr  []int32   // slot -> range into slotTerm
	slotTerm []int32   // terms of each slot in Build's summation order
}

// NumEntries returns the number of accumulated (non-zero) entries so far.
// Callers planning in-place updates use it to learn the term index the next
// Add/AddSym call will receive.
func (b *Builder) NumEntries() int { return len(b.vals) }

// BuildFixed assembles the CSR matrix exactly like Build — same pattern, same
// values, bit for bit — and additionally records, for every accumulated
// entry, which value slot it landed in and in which order each slot sums its
// entries. The builder's entries keep their insertion indices as term IDs.
//
// The pattern (RowPtr, Col and the term bookkeeping) is a pure function of
// the builder's (row, col) sequence, so it is cached process-wide
// (fixedCache): a repeat build of the same sequence skips the sorts, shares
// the cached pattern arrays and only fills its own values, which RefreshAll
// sums in the recorded order. Nothing writes a Fixed's pattern arrays.
func (b *Builder) BuildFixed() *Fixed {
	p := fixedPatternFor(b)
	f := &Fixed{
		Mat:      &CSR{N: p.Mat.N, RowPtr: p.Mat.RowPtr, Col: p.Mat.Col, Val: make([]float64, len(p.Mat.Col))},
		terms:    append([]float64(nil), b.vals...),
		termSlot: p.termSlot,
		slotPtr:  p.slotPtr,
		slotTerm: p.slotTerm,
	}
	f.RefreshAll()
	return f
}

// fixedKey identifies a frozen pattern: the matrix order, the entry count
// and a hash of the (row, col) sequence.
type fixedKey struct {
	n, terms int
	hash     uint64
}

// fixedCacheMax bounds the pattern cache. A placement flow or a worker pool
// assembles one stack at one grid, so a few entries cover the working set,
// while each new interposer size or grid a long-lived service sees would
// otherwise pin a pattern (8 bytes per coordinate entry plus 8 per stored
// value) forever. Evicting an
// entry only costs a sort on its next use; live Fixed instances keep their
// own references.
const fixedCacheMax = 4

// fixedCache maps fixedKey to a pattern-only Fixed (Mat.Val and terms nil),
// evicting the oldest entry beyond fixedCacheMax.
var fixedCache struct {
	sync.Mutex
	m     map[fixedKey]*Fixed
	order []fixedKey // insertion order, oldest first
}

// fixedPatternFor returns the cached pattern of b's entry sequence, building
// it on first use. The build runs under the cache lock, so models that start
// together sort a pattern once and share it.
func fixedPatternFor(b *Builder) *Fixed {
	key := fixedKey{n: b.n, terms: len(b.rows), hash: fnvWords(fnvWords(fnvOffset, b.rows), b.cols)}
	c := &fixedCache
	c.Lock()
	defer c.Unlock()
	if p, ok := c.m[key]; ok {
		return p
	}
	p := b.fixedPattern()
	if c.m == nil {
		c.m = make(map[fixedKey]*Fixed)
	}
	c.m[key] = p
	c.order = append(c.order, key)
	if len(c.order) > fixedCacheMax {
		delete(c.m, c.order[0])
		c.order = slices.Delete(c.order, 0, 1)
	}
	return p
}

// fixedPattern sorts b's entries into a pattern-only Fixed, bypassing the
// cache.
func (b *Builder) fixedPattern() *Fixed {
	nTerms := len(b.vals)
	p := &Fixed{
		termSlot: make([]int32, nTerms),
		slotPtr:  make([]int32, 0, nTerms+1),
		slotTerm: make([]int32, 0, nTerms),
	}
	m := b.build(p)
	p.slotPtr = append(p.slotPtr, int32(nTerms))
	p.Mat = &CSR{N: m.N, RowPtr: m.RowPtr, Col: m.Col}
	return p
}

// NumTerms returns the number of recorded terms.
func (f *Fixed) NumTerms() int { return len(f.terms) }

// SetTerm rewrites the value of term t without touching the matrix; call
// RefreshSlot (or RefreshAll) on the affected slots afterwards.
func (f *Fixed) SetTerm(t int32, v float64) { f.terms[t] = v }

// TermSlot returns the value slot term t contributes to.
func (f *Fixed) TermSlot(t int32) int32 { return f.termSlot[t] }

// RefreshSlot recomputes slot s as the sum of its terms, in the exact order a
// full Build would have summed them.
func (f *Fixed) RefreshSlot(s int32) {
	lo, hi := f.slotPtr[s], f.slotPtr[s+1]
	sum := f.terms[f.slotTerm[lo]]
	for _, t := range f.slotTerm[lo+1 : hi] {
		sum += f.terms[t]
	}
	f.Mat.Val[s] = sum
}

// RefreshAll recomputes every slot from the current terms. The result is
// bit-identical to rebuilding the matrix from scratch with the same entry
// values.
func (f *Fixed) RefreshAll() {
	for s := range f.Mat.Val {
		f.RefreshSlot(int32(s))
	}
}
