package route

import (
	"errors"
	"strings"
	"testing"
)

// TestFastInfeasibleTyped: the greedy router's capacity failure must be
// errors.Is-matchable and carry the binding clump capacities.
func TestFastInfeasibleTyped(t *testing.T) {
	sys, p := lineSystem() // 100-wire channel
	sys.PinsPerClumpLimit = 10
	_, err := Route(sys, p, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *InfeasibleError", err)
	}
	if ie.Method != MethodFast || ie.Net != 0 {
		t.Errorf("attribution = method %v net %d, want fast net 0", ie.Method, ie.Net)
	}
	if ie.Unrouted <= 0 {
		t.Errorf("Unrouted = %d, want > 0", ie.Unrouted)
	}
	if len(ie.Clumps) != 2 || ie.Clumps[0].Name != "A" || ie.Clumps[1].Name != "B" {
		t.Fatalf("Clumps = %+v, want the A and B endpoints", ie.Clumps)
	}
	for _, c := range ie.Clumps {
		if c.Capacity != 10 {
			t.Errorf("clump %s capacity %d, want the configured 10", c.Name, c.Capacity)
		}
	}
	if !strings.Contains(err.Error(), "Eqn. 7") || !strings.Contains(err.Error(), "A=10") {
		t.Errorf("message %q lost the paper reference or the capacities", err.Error())
	}
}

// TestMILPInfeasibleTyped: the exact router's infeasibility proof uses the
// same sentinel, attributed to no single net.
func TestMILPInfeasibleTyped(t *testing.T) {
	sys, p := lineSystem()
	sys.PinsPerClumpLimit = 10
	_, err := Route(sys, p, Options{Method: MethodMILP})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *InfeasibleError", err)
	}
	if ie.Method != MethodMILP || ie.Net != -1 {
		t.Errorf("attribution = method %v net %d, want milp net -1", ie.Method, ie.Net)
	}
	if len(ie.Clumps) != len(sys.Chiplets) {
		t.Errorf("Clumps = %+v, want one entry per chiplet", ie.Clumps)
	}
}

// TestFeasibleRouteNotInfeasible guards against over-matching: a successful
// route and a validation error both stay clear of the sentinel.
func TestFeasibleRouteNotInfeasible(t *testing.T) {
	sys, p := lineSystem()
	if _, err := Route(sys, p, Options{}); err != nil {
		t.Fatalf("feasible instance failed: %v", err)
	}
	p.Centers[1] = p.Centers[0] // overlap
	_, err := Route(sys, p, Options{})
	if err == nil || errors.Is(err, ErrInfeasible) {
		t.Errorf("validation error %v must not match ErrInfeasible", err)
	}
}
