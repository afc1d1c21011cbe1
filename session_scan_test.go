// In-package test: it inspects the scan-pool registry directly. It must not
// import internal/experiment (which builds on this package).
package gridbcast

import (
	"reflect"
	"testing"
)

// TestScanWorkersClampedToClusters pins the single clamp on scan workers:
// a request for far more workers than the platform has clusters builds the
// same plan as the sequential engine in every mode, through a builder of at
// most N workers, and never registers a pool for the raw count.
func TestScanWorkersClampedToClusters(t *testing.T) {
	g := Grid5000()
	sess, err := NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]Option{
		nil,
		{WithSegments(256 << 10)},
		{WithPipelined()},
	} {
		base := append([]Option{WithHeuristic(ECEFLAT), WithRoot(1), WithSize(4 << 20)}, mode...)
		seq, err := sess.Plan(NewRequest(base...))
		if err != nil {
			t.Fatal(err)
		}
		par, err := sess.Plan(NewRequest(append(base, WithScanWorkers(1000))...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.Schedule, seq.Schedule) || !reflect.DeepEqual(par.Segmented, seq.Segmented) {
			t.Fatalf("WithScanWorkers(1000) plan diverges from the sequential plan (mode %d options)", len(mode))
		}
	}
	if _, ok := scanPools.Load(1000); ok {
		t.Error("a scan pool was registered for the unclamped worker count")
	}
	ep := scanEnginePool(NewRequest(WithScanWorkers(1000)), g.N())
	if ep == nil {
		t.Fatal("no scan pool for a multi-cluster platform")
	}
	defer returnScanEnginePool(ep)
	if w := ep.Scan.Workers(); w > g.N() {
		t.Errorf("builder has %d workers on a %d-cluster platform", w, g.N())
	}
}
