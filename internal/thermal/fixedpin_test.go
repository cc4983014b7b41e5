package thermal

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"tap25d/internal/material"
	"tap25d/internal/sparse"
)

// wordsHash returns FNV-1a over the little-endian bytes of words.
func wordsHash(words []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, u := range words {
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// fixedField returns the unexported int32 slice field name of f, read
// through reflection so the pin needs no accessor in sparse's API.
func fixedField(f *sparse.Fixed, name string) []uint64 {
	v := reflect.ValueOf(f).Elem().FieldByName(name)
	out := make([]uint64, v.Len())
	for i := range out {
		out[i] = uint64(v.Index(i).Int())
	}
	return out
}

func int32Words(s []int32) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i] = uint64(v)
	}
	return out
}

// TestFixedPatternBitsPinned pins the frozen pattern of the CPU-DRAM
// conductance matrix (sparse.BuildFixed's columns, the slot of every term
// and each slot's summation order) and the values of a plain Build. The row
// sort decides which of a row's duplicate entries is summed first, so a
// change to the sort must keep every row's permutation: these hashes are
// the permutation's fingerprint. The test also checks that entryCount, the
// coordinate-list length assembleFull reserves, is exact.
func TestFixedPatternBitsPinned(t *testing.T) {
	want := map[int][4]uint64{
		16: {0x396e393739f4c205, 0xd8c984ecf62119b6, 0x91bd1e442c2a7779, 0x05c079a0c8cfad76},
		64: {0x03b02174673c2bf5, 0xa3c06b687180123f, 0x6824322d5bd621f9, 0x0a3cc36b6e33688b},
	}
	pc := precondCases()[1] // cpudram
	stack := material.DefaultStackFor(pc.w, pc.h)
	for _, g := range []int{16, 64} {
		m, err := NewModel(pc.w, pc.h, Options{Grid: g, Stack: &stack})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.initIncremental(pc.sources); err != nil {
			t.Fatal(err)
		}
		var got [4]uint64
		got[0] = wordsHash(int32Words(m.fixed.Mat.Col))
		got[1] = wordsHash(fixedField(m.fixed, "termSlot"))
		got[2] = wordsHash(fixedField(m.fixed, "slotTerm"))
		m.assemble()
		if n, want := m.builder.NumEntries(), m.entryCount(); n != want {
			t.Errorf("grid %d: assembly added %d entries, entryCount reserves %d", g, n, want)
		}
		a := m.builder.Build()
		vals := make([]uint64, len(a.Val))
		for i, v := range a.Val {
			vals[i] = math.Float64bits(v)
		}
		got[3] = wordsHash(vals)
		if got != want[g] {
			t.Errorf("grid %d: Col, termSlot, slotTerm, Build Val hashes %#x, want %#x", g, got, want[g])
		}
	}
}
