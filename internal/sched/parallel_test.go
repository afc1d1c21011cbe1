package sched

import (
	"testing"

	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// parallelWorkerCounts covers the degenerate single worker, uneven shards,
// more workers than receivers, and a typical core count.
var parallelWorkerCounts = []int{1, 2, 3, 5, 8, 32}

// scanBuild is a one-shot parallel construction: an EnginePool with a
// workers-wide Scan builder attached, released after one schedule.
func scanBuild(h Heuristic, p *Problem, workers int) *Schedule {
	pb := NewParallelBuilder(workers)
	defer pb.Close()
	return (&EnginePool{Scan: pb}).Schedule(h, p)
}

// TestParallelBuildMatchesEngineGrid5000 pins the bit-identity contract on
// the paper's platform: every heuristic, every root, several sizes, every
// worker count.
func TestParallelBuildMatchesEngineGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{1 << 10, 1 << 20, 9 << 20} {
		for root := 0; root < g.N(); root++ {
			p := MustProblem(g, root, m, Options{})
			for _, h := range equivalenceHeuristics() {
				seq := Reference{Base: h}.Schedule(p)
				for _, w := range parallelWorkerCounts {
					par := scanBuild(h, p, w)
					assertIdentical(t, h.Name(), par, seq)
				}
			}
		}
	}
}

// TestParallelBuildMatchesEngineRandom extends the contract to seeded random
// platforms across sizes, both completion models and both symmetry settings.
func TestParallelBuildMatchesEngineRandom(t *testing.T) {
	const platforms = 16
	for trial := 0; trial < platforms; trial++ {
		r := stats.NewRand(stats.SplitSeed(4242, int64(trial)))
		n := 2 + r.Intn(70)
		var g *topology.Grid
		if trial%2 == 0 {
			g = topology.RandomGrid(r, n)
		} else {
			g = topology.RandomSymmetricGrid(r, n)
		}
		p := MustProblem(g, r.Intn(n), 1<<20, Options{Overlap: trial%3 == 0})
		for _, h := range equivalenceHeuristics() {
			seq := Reference{Base: h}.Schedule(p)
			for _, w := range parallelWorkerCounts {
				assertIdentical(t, h.Name(), scanBuild(h, p, w), seq)
			}
		}
	}
}

// TestParallelBuildLargeGrid spot-checks the regime the parallel builder
// targets: one large platform, every heuristic, a few worker counts.
func TestParallelBuildLargeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("large-grid parallel equivalence is slow")
	}
	g := topology.RandomGrid(stats.NewRand(17), 256)
	p := MustProblem(g, 5, 1<<20, Options{Overlap: true})
	for _, h := range equivalenceHeuristics() {
		seq := h.Schedule(p)
		for _, w := range []int{2, 8} {
			assertIdentical(t, h.Name(), scanBuild(h, p, w), seq)
		}
	}
}

// TestParallelBuildComposites checks the delegating paths: Mixed renames its
// inner schedule, while Refined (no pooled engine) and FlatTree (a cursor
// with no scan to chunk) build sequentially.
func TestParallelBuildComposites(t *testing.T) {
	r := stats.NewRand(31)
	for _, n := range []int{6, 30} {
		p := MustProblem(topology.RandomGrid(r, n), 0, 1<<20, Options{})
		assertIdentical(t, "Mixed", scanBuild(Mixed{}, p, 4), Reference{Base: Mixed{}}.Schedule(p))
		ref := Refined{Base: ECEFLA(), MaxRounds: 1}
		assertIdentical(t, "Refined", scanBuild(ref, p, 4), Reference{Base: ref}.Schedule(p))
		assertIdentical(t, "FlatTree", scanBuild(FlatTree{}, p, 4), Reference{Base: FlatTree{}}.Schedule(p))
	}
}

// TestParallelBuildDefaultWorkers exercises the workers <= 0 default
// (GOMAXPROCS) and a builder with more workers than receivers.
func TestParallelBuildDefaultWorkers(t *testing.T) {
	p := MustProblem(topology.RandomGrid(stats.NewRand(8), 12), 0, 1<<20, Options{})
	for _, h := range equivalenceHeuristics() {
		assertIdentical(t, h.Name(), scanBuild(h, p, 0), Reference{Base: h}.Schedule(p))
		assertIdentical(t, h.Name(), scanBuild(h, p, 100), Reference{Base: h}.Schedule(p))
	}
}
