package sched

import (
	"testing"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// TestEnginePoolMatchesEngine pins the pool's contract: schedules from one
// long-lived pool are bit-identical to the naive reference pickers, across
// heuristics, roots, sizes and repeated reuse of the same pool.
func TestEnginePoolMatchesEngine(t *testing.T) {
	ep := NewEnginePool()
	g := topology.Grid5000()
	for _, m := range []int64{1 << 10, 1 << 20, 9 << 20} {
		for root := 0; root < g.N(); root++ {
			p := MustProblem(g, root, m, Options{})
			for _, h := range append(equivalenceHeuristics(), Mixed{}) {
				assertIdentical(t, h.Name(), ep.Schedule(h, p), Reference{Base: h}.Schedule(p))
			}
		}
	}
	// Random platforms of varying sizes force buffer regrowth between
	// schedules; repeat each problem to exercise the warm-template path.
	for trial := 0; trial < 12; trial++ {
		r := stats.NewRand(stats.SplitSeed(31, int64(trial)))
		n := 2 + r.Intn(50)
		g := topology.RandomGrid(r, n)
		p := MustProblem(g, r.Intn(n), 1<<20, Options{Overlap: trial%2 == 0})
		for _, h := range equivalenceHeuristics() {
			for rep := 0; rep < 2; rep++ {
				assertIdentical(t, h.Name(), ep.Schedule(h, p), Reference{Base: h}.Schedule(p))
			}
		}
	}
}

// TestEnginePoolTemplatesAreRootIndependent verifies the headline reuse: one
// lookahead template per (platform, size, kind) serves every root, so a full
// root rotation builds no more templates than a single root does.
func TestEnginePoolTemplatesAreRootIndependent(t *testing.T) {
	ep := NewEnginePool()
	g := topology.Grid5000()
	for root := 0; root < g.N(); root++ {
		p := MustProblem(g, root, 1<<20, Options{})
		for _, h := range ECEFFamily() {
			ep.Schedule(h, p)
		}
	}
	// ECEF has no lookahead; LA, LAt and LAT contribute one kind each.
	if len(ep.templates) != 3 {
		t.Fatalf("root rotation built %d templates, want 3", len(ep.templates))
	}
}

// TestEnginePoolTemplateInvalidation pins the T guard: the same W matrix
// with different local broadcast times (another intra-cluster tree shape)
// must rebuild the -LAt/-LAT templates rather than reuse stale entries.
func TestEnginePoolTemplateInvalidation(t *testing.T) {
	ep := NewEnginePool()
	g := topology.Grid5000()
	pBin := MustProblem(g, 0, 1<<20, Options{IntraShape: intracluster.Binomial})
	pFlat := MustProblem(g, 0, 1<<20, Options{IntraShape: intracluster.Flat})
	if floatsEqual(pBin.T, pFlat.T) {
		t.Fatal("test premise broken: shapes predict identical T")
	}
	for _, p := range []*Problem{pBin, pFlat} {
		for _, h := range []Heuristic{ECEFLAt(), ECEFLAT()} {
			assertIdentical(t, h.Name(), ep.Schedule(h, p), Reference{Base: h}.Schedule(p))
		}
	}
}

// TestEnginePoolFallback covers heuristics without pooled engines: they
// delegate to their own Schedule.
func TestEnginePoolFallback(t *testing.T) {
	ep := NewEnginePool()
	p := MustProblem(topology.RandomGrid(stats.NewRand(3), 9), 0, 1<<20, Options{})
	h := Refined{Base: ECEFLA(), MaxRounds: 1}
	assertIdentical(t, h.Name(), ep.Schedule(h, p), h.Schedule(p))
}
