// External test package: the benchmarks import internal/experiment, which
// itself builds on package gridbcast, so in-package tests would cycle.
package gridbcast_test

import (
	"context"
	"math"
	"testing"

	. "gridbcast"
)

// planWith plans one request on a fresh session over g.
func planWith(t *testing.T, g *Grid, opts ...Option) (*Session, *Plan) {
	t.Helper()
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sess.Plan(NewRequest(opts...))
	if err != nil {
		t.Fatal(err)
	}
	return sess, plan
}

// pinned parses a heuristic name, failing the test on an unknown one.
func pinned(t *testing.T, name string) Option {
	t.Helper()
	h, err := ParseHeuristic(name)
	if err != nil {
		t.Fatal(err)
	}
	return WithHeuristic(h)
}

func TestPredictAndSimulateAgree(t *testing.T) {
	g := Grid5000()
	for _, name := range []string{"FlatTree", "ECEF", "ECEF-LAT", "BottomUp", "Mixed"} {
		sess, plan := planWith(t, g, pinned(t, name), WithSize(1<<20))
		res, err := sess.Execute(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(plan.Makespan-res.Makespan) > 1e-9 {
			t.Errorf("%s: predicted %g != simulated %g", name, plan.Makespan, res.Makespan)
		}
	}
}

func TestPredictUnknownHeuristic(t *testing.T) {
	if _, err := ParseHeuristic("nope"); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func TestHeuristicNamesResolvable(t *testing.T) {
	names := HeuristicNames()
	if len(names) < 8 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		planWith(t, Grid5000(), pinned(t, n), WithSize(1<<10))
	}
}

func TestRandomGridDeterministic(t *testing.T) {
	a, b := RandomGrid(5, 10), RandomGrid(5, 10)
	if a.Latency(0, 1) != b.Latency(0, 1) {
		t.Error("same seed, different grid")
	}
	if a.N() != 10 {
		t.Errorf("N = %d", a.N())
	}
}

func TestBestIsMinimal(t *testing.T) {
	g := RandomGrid(9, 8)
	_, best := planWith(t, g, WithSize(1<<20))
	for _, h := range Heuristics() {
		_, plan := planWith(t, g, WithHeuristic(h), WithSize(1<<20))
		if best.Makespan > plan.Makespan+1e-12 {
			t.Errorf("Best (%g) worse than %s (%g)", best.Makespan, h.Name(), plan.Makespan)
		}
	}
}

func TestSimulateBinomialBaseline(t *testing.T) {
	sess, best := planWith(t, Grid5000(), WithSize(1<<20))
	res, err := sess.ExecuteBinomial(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= best.Makespan {
		t.Errorf("grid-unaware binomial (%g) should lose to best schedule (%g)",
			res.Makespan, best.Makespan)
	}
}

func TestSimulateWithJitter(t *testing.T) {
	sess, plan := planWith(t, Grid5000(), pinned(t, "ECEF"), WithSize(1<<20))
	res, err := sess.Execute(plan, NetConfig{Jitter: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan == plan.Makespan {
		t.Error("jitter should perturb the measurement")
	}
}

func TestLoadGridMissing(t *testing.T) {
	if _, err := LoadGrid("/nonexistent/grid.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRefineFacade(t *testing.T) {
	sess, plan := planWith(t, RandomGrid(77, 7), pinned(t, "FlatTree"), WithSize(1<<20))
	ref, err := sess.Refine(context.Background(), plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Makespan > plan.Makespan+1e-12 {
		t.Errorf("refine worsened %g -> %g", plan.Makespan, ref.Makespan)
	}
	bad := &Plan{Root: -1, Size: 1, Schedule: plan.Schedule}
	if _, err := sess.Refine(context.Background(), bad, 0); err == nil {
		t.Error("bad root accepted")
	}
}

func TestSegmentedFacade(t *testing.T) {
	const m = 4 << 20
	sess, plan := planWith(t, Grid5000(), pinned(t, "Mixed"), WithSize(m), WithSegments(256<<10))
	ss := plan.Segmented
	if ss.K != 16 {
		t.Fatalf("K = %d, want 16", ss.K)
	}
	res, err := sess.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-ss.Makespan) > 1e-8 {
		t.Errorf("predicted %g != simulated %g", ss.Makespan, res.Makespan)
	}
}

func TestPipelinedFacadeBeatsUnsegmented(t *testing.T) {
	g := Grid5000()
	const m = 16 << 20
	_, best := planWith(t, g, pinned(t, "ECEF-LAT"), WithSize(m), WithPipelined())
	_, unseg := planWith(t, g, pinned(t, "ECEF-LAT"), WithSize(m))
	if best.Makespan > unseg.Makespan {
		t.Errorf("pipelined %g worse than unsegmented %g", best.Makespan, unseg.Makespan)
	}
	if best.K < 2 {
		t.Errorf("large message should pick real segmentation, got K=%d", best.K)
	}
}
