package seqpair

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"tap25d/internal/chiplet"
	"tap25d/internal/systems"
)

// pinSystems are the three case-study systems plus one whose chiplets fit
// the interposer by area but not packed with gaps, so every seed pins the
// error text of a packing that overflows.
func pinSystems() map[string]*chiplet.System {
	m := systems.All()
	m["jam"] = &chiplet.System{
		Name:        "jam",
		InterposerW: 20,
		InterposerH: 20,
		Chiplets: []chiplet.Chiplet{
			{Name: "A", W: 19, H: 10, Power: 1},
			{Name: "B", W: 19, H: 11, Power: 1},
		},
	}
	return m
}

// placeCompactDigest hashes the bits of every PlaceCompact result of sys at
// steps over seeds 1–10: centers, rotations, bounding box and wirelength,
// or the error text of a packing that does not fit the interposer. It also
// returns how many seeds failed.
func placeCompactDigest(sys *chiplet.System, steps int) (uint64, int) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	fails := 0
	for seed := int64(1); seed <= 10; seed++ {
		res, err := PlaceCompact(sys, Options{Seed: seed, Steps: steps})
		if err != nil {
			fails++
			fmt.Fprintf(h, "seed %d: %v\n", seed, err)
			continue
		}
		for i, c := range res.Placement.Centers {
			put(c.X)
			put(c.Y)
			if res.Placement.Rotated[i] {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		put(res.BBoxMM.Center.X)
		put(res.BBoxMM.Center.Y)
		put(res.BBoxMM.W)
		put(res.BBoxMM.H)
		put(res.WirelengthMM)
	}
	return h.Sum64(), fails
}

// TestSeqPairPlaceCompactBitsPinned pins sequence-pair compact placements bit for bit at
// the short budgets the service and tests use and at the 20000-step
// default every placement flow starts from: a rewrite of the anneal must
// keep every RNG draw and floating-point operation in order.
func TestSeqPairPlaceCompactBitsPinned(t *testing.T) {
	want := []struct {
		system string
		steps  int
		digest uint64
		fails  int
	}{
		{"multigpu", 400, 0x72c68f71935bc37b, 0},
		{"multigpu", 2000, 0x21269e4ae4901145, 0},
		{"multigpu", 20000, 0xf4bd860e8e0b7758, 0},
		{"cpudram", 400, 0xfcde46b69ef197dd, 0},
		{"cpudram", 2000, 0xb7e14514f571e9a1, 0},
		{"cpudram", 20000, 0x4e1d469f7374bfcc, 0},
		{"ascend910", 400, 0x1555840ae81ee3da, 0},
		{"ascend910", 2000, 0xa02d8c7f56ca07e4, 0},
		{"ascend910", 20000, 0x9f139f30493d36af, 0},
		{"jam", 400, 0xdb84aaa91372c749, 10},
		{"jam", 2000, 0xdb84aaa91372c749, 10},
		{"jam", 20000, 0xdb84aaa91372c749, 10},
	}
	sys := pinSystems()
	for _, w := range want {
		got, fails := placeCompactDigest(sys[w.system], w.steps)
		if got != w.digest || fails != w.fails {
			t.Errorf("%s at %d steps: digest %#016x with %d failing seeds, want %#016x with %d",
				w.system, w.steps, got, fails, w.digest, w.fails)
		}
	}
}
