package placer

import (
	"math"
	"testing"

	"tap25d/internal/chiplet"
)

// TestAnnealingSchedule verifies the paper's K schedule through the history:
// K starts at 1, never rises, decays by the 0.95 factor per level, and
// bottoms out at 0.01.
func TestAnnealingSchedule(t *testing.T) {
	sys := placerSystem()
	res, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2},
		Options{Steps: 500, Seed: 9, History: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	if res.History[0].K != 1 {
		t.Errorf("first K = %v, want 1", res.History[0].K)
	}
	prev := math.Inf(1)
	distinct := map[float64]bool{}
	for _, s := range res.History {
		if s.K > prev+1e-15 {
			t.Fatalf("K rose: %v after %v", s.K, prev)
		}
		distinct[s.K] = true
		prev = s.K
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct K levels over 500 steps", len(distinct))
	}
	// Consecutive distinct levels differ by the 0.95 factor (until the
	// 0.01 floor).
	var levels []float64
	seen := map[float64]bool{}
	for _, s := range res.History {
		if !seen[s.K] {
			seen[s.K] = true
			levels = append(levels, s.K)
		}
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= 0.01+1e-12 {
			break
		}
		ratio := levels[i] / levels[i-1]
		if math.Abs(ratio-0.95) > 1e-9 {
			t.Fatalf("K decay ratio %v at level %d, want 0.95", ratio, i)
		}
	}
	if last := res.History[len(res.History)-1].K; last < 0.01-1e-12 {
		t.Errorf("K fell below the 0.01 floor: %v", last)
	}
}

// TestOperatorMixRoughlyMatchesWeights: over many steps, the recorded
// operators follow the 0.5/0.25/0.25 move/rotate/jump mix.
func TestOperatorMixRoughlyMatchesWeights(t *testing.T) {
	sys := placerSystem()
	res, err := Place(sys, &fakeEval{sys: sys, tempBase: 60, tempSlope: 0},
		Options{Steps: 1200, Seed: 10, History: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Op]int{}
	for _, s := range res.History {
		counts[s.Op]++
	}
	total := len(res.History)
	if total < 1000 {
		t.Fatalf("history too short: %d", total)
	}
	moveFrac := float64(counts[OpMove]) / float64(total)
	// Moves can fail validity and be retried as other ops, so allow a wide
	// band; the point is that all three operators fire and moves dominate.
	if moveFrac < 0.35 || moveFrac > 0.85 {
		t.Errorf("move fraction %v outside [0.35, 0.85]", moveFrac)
	}
	if counts[OpRotate] == 0 || counts[OpJump] == 0 {
		t.Errorf("operator starved: %v", counts)
	}
}

// TestAcceptanceCoolsDown: the acceptance ratio in the first quarter of the
// anneal must exceed the last quarter (otherwise the schedule does nothing).
func TestAcceptanceCoolsDown(t *testing.T) {
	sys := placerSystem()
	res, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2},
		Options{Steps: 1000, Seed: 11, History: true})
	if err != nil {
		t.Fatal(err)
	}
	h := res.History
	q := len(h) / 4
	frac := func(part []Sample) float64 {
		acc := 0
		for _, s := range part {
			if s.Accepted {
				acc++
			}
		}
		return float64(acc) / float64(len(part))
	}
	early := frac(h[:q])
	late := frac(h[len(h)-q:])
	if late >= early {
		t.Errorf("acceptance did not cool: early %v, late %v", early, late)
	}
}

// TestPlaceSingleChipletSystem: degenerate but legal input — one chiplet,
// no channels. The placer should run (only move/rotate/jump of one die) and
// return a valid placement.
func TestPlaceSingleChipletSystem(t *testing.T) {
	sys := &chiplet.System{
		Name:        "solo",
		InterposerW: 20,
		InterposerH: 20,
		Chiplets:    []chiplet.Chiplet{{Name: "X", W: 8, H: 6, Power: 50}},
	}
	ev := &fakeEval{sys: sys, tempBase: 70, tempSlope: 0}
	res, err := Place(sys, ev, Options{Steps: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatal(err)
	}
}
