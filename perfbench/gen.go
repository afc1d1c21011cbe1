package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	gridbcast "gridbcast"
	"gridbcast/internal/service"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// platSpec is one generated platform: a built-in grid5000 (clusters 0) or
// a topology.RandomClusteredGrid of the given cluster count, written to a
// platform JSON file so the program only ever sees files on disk.
type platSpec struct {
	name     string
	clusters int
}

// platform is a platSpec resolved for one seed.
type platform struct {
	name     string
	source   string // daemon -platform source: "grid5000" or a JSON path
	clusters int
}

// opKind is what one stream element asks of the system.
type opKind uint8

const (
	opPlan opKind = iota
	opBatch
	opReload
)

// op is one element of a workload's request stream. Serving workloads
// send body to path; the library workload plans req and executes it on
// net.
type op struct {
	kind  opKind
	req   service.PlanRequest  // opPlan
	batch service.BatchRequest // opBatch
	net   gridbcast.NetConfig  // library workload only
	path  string
	body  []byte
}

// inputs is everything generated from one workload seed.
type inputs struct {
	platforms []platform
	// warm are the distinct plan requests made resident before timing.
	warm []service.PlanRequest
	// stream is the timed request stream, consumed in order and cycled.
	stream []op
}

// sizes are the message sizes of working-set keys.
var sizes = []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}

// pinned are the heuristics a pinned request may name.
var pinned = []string{"ECEF", "ECEF-LA", "ECEF-LAt", "ECEF-LAT", "BottomUp", "FEF"}

// newRand derives an independent deterministic stream for one purpose of
// one seed, so adding a draw to one stream never shifts another.
func newRand(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + purpose))
}

// meanNodes is RandomClusteredGrid's mean cluster size (uniform in [2, 33)).
const meanNodes = 17

// writePlatforms resolves specs for seed, writing each generated grid as
// platform JSON under dir.
func writePlatforms(dir string, seed int64, specs []platSpec) ([]platform, error) {
	out := make([]platform, 0, len(specs))
	for i, sp := range specs {
		if sp.clusters == 0 {
			out = append(out, platform{name: sp.name, source: "grid5000", clusters: 6})
			continue
		}
		// Node counts are drawn per cluster; redraw until the total is
		// within 3% of its mean, so a platform's size, which sets the
		// executor's cost, is a property of the workload, not of the seed.
		var g *topology.Grid
		for k := int64(0); ; k++ {
			g = topology.RandomClusteredGrid(newRand(seed, int64(100+i)+1000*k), sp.clusters)
			if want := meanNodes * float64(sp.clusters); math.Abs(float64(g.TotalNodes())-want) <= 0.03*want {
				break
			}
		}
		path := filepath.Join(dir, sp.name+".json")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := g.WriteJSON(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		out = append(out, platform{name: sp.name, source: path, clusters: sp.clusters})
	}
	return out, nil
}

// shape is a request shape; keyFor draws one request of that shape.
type shape uint8

const (
	shapePinned    shape = iota // one heuristic, unsegmented
	shapeBest                   // best-of-paper, unsegmented
	shapePipe                   // ECEF-LAT on the pipelined ladder
	shapePipeLocal              // pipelined plus segmented-local streaming
	shapeRefine                 // ECEF-LAT plus one refinement sweep
)

func keyFor(r *rand.Rand, p platform, sh shape, size int64) service.PlanRequest {
	req := service.PlanRequest{Platform: p.name, Root: r.Intn(p.clusters), Size: size}
	switch sh {
	case shapePinned:
		req.Heuristic = pinned[r.Intn(len(pinned))]
	case shapeBest:
	case shapePipe:
		req.Heuristic, req.Pipelined = "ECEF-LAT", true
	case shapePipeLocal:
		req.Heuristic, req.Pipelined, req.SegmentedLocal = "ECEF-LAT", true, true
	case shapeRefine:
		one := 1
		req.Heuristic, req.Refine = "ECEF-LAT", &one
	}
	return req
}

// pickShape draws a shape from cumulative percentage weights.
func pickShape(r *rand.Rand, cum [][2]int) shape { return shapeAt(r.Intn(100), cum) }

// shapeAt is the shape at percentile x in [0, 100) of cumulative weights.
func shapeAt(x int, cum [][2]int) shape {
	for _, c := range cum {
		if x < c[0] {
			return shape(c[1])
		}
	}
	return shapePinned
}

// servingShapes is the shape mix of the cached serving workloads: mostly
// cheap unsegmented plans, with pipelined and refined plans in the mix so
// every planner layer appears in the working set. The weights are an
// assumption, not observed traffic.
var servingShapes = [][2]int{{45, int(shapePinned)}, {75, int(shapeBest)}, {92, int(shapePipe)}, {100, int(shapeRefine)}}

// keySet draws n distinct requests per platform, interleaved so that key
// k is on platform k mod len(plats). The shape and first-choice size of a
// platform's j-th key follow low-discrepancy sequences over mix and sizes,
// so every seed has the same shape and size make-up, at every position:
// the work and memory of a working set, or of its most popular keys, do
// not hinge on a few draws. Roots and pinned heuristics are drawn from r,
// and so are sizes once a key has collided a few times, and shapes once
// it has collided many times (a small platform runs out of keys of the
// shapes with no heuristic to vary). n must stay well below the number of
// distinct keys a platform has (roots x sizes x shapes).
func keySet(r *rand.Rand, plats []platform, n int, mix [][2]int) []service.PlanRequest {
	var out []service.PlanRequest
	seen := map[string]bool{}
	for j := 0; j < n; j++ {
		sh := shapeAt(int(100*frac(float64(j)*phi)), mix)
		size := sizes[int(float64(len(sizes))*frac(float64(j)*phi2))]
		for _, p := range plats {
			for tries := 0; ; tries++ {
				if tries > 100*n {
					panic(fmt.Sprintf("keySet: platform %s has fewer than %d distinct keys", p.name, n))
				}
				sz, shp := size, sh
				if tries >= 4 {
					sz = sizes[r.Intn(len(sizes))]
				}
				if tries >= 64 {
					shp = pickShape(r, mix)
				}
				req := keyFor(r, p, shp, sz)
				b, _ := json.Marshal(req)
				if !seen[string(b)] {
					seen[string(b)] = true
					out = append(out, req)
					break
				}
			}
		}
	}
	return out
}

// phi and phi2 step the low-discrepancy sequences of keySet: the
// reciprocal of the golden ratio and the reciprocal square of the plastic
// number, whose multiples mod 1 spread evenly and independently.
const (
	phi  = 0.6180339887498949
	phi2 = 0.5698402909980532
)

func frac(x float64) float64 { return x - math.Floor(x) }

// reloadOp asks the daemon to reload its platform registry; open-loop
// passes send it at fixed times (see pass.reloadEvery).
var reloadOp = op{kind: opReload, path: "/admin/reload", body: []byte("{}")}

func planOp(req service.PlanRequest) op {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // PlanRequest always marshals
	}
	return op{kind: opPlan, req: req, path: "/v1/plan", body: b}
}

func batchOp(br service.BatchRequest) op {
	b, err := json.Marshal(br)
	if err != nil {
		panic(err)
	}
	return op{kind: opBatch, batch: br, path: "/v1/plan/batch", body: b}
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// generate builds the workload's inputs for seed, writing platform files
// under dir. The same seed always yields byte-identical files and streams.
func generate(w *workload, seed int64, dir string) (*inputs, error) {
	plats, err := writePlatforms(dir, seed, w.platforms)
	if err != nil {
		return nil, err
	}
	in := &inputs{platforms: plats}
	r := newRand(seed, 1)
	switch w.name {
	case "hit-serve":
		in.warm = keySet(r, plats, w.keysPerPlatform, servingShapes)
		for i := 0; i < w.streamLen; i++ {
			in.stream = append(in.stream, planOp(in.warm[r.Intn(len(in.warm))]))
		}
	case "build-serve":
		// Every timed key is unique: roots, sizes and shapes are drawn
		// and repeats are redrawn. Sizes come from a seeded pool per
		// platform, because the program keeps one cost table per distinct
		// message size without bound (see topology.newsize_kb); the
		// warm-up costs every pool size once and then fills the plan cache
		// to its eviction steady state, so memory is flat while timing.
		// The weights of this mix are an assumption, not observed traffic.
		mix := [][2]int{{40, int(shapePinned)}, {75, int(shapeBest)}, {97, int(shapePipe)}, {100, int(shapeRefine)}}
		pools := make([][]int64, len(plats))
		for i := range plats {
			seen := map[int64]bool{}
			for len(pools[i]) < w.sizePool {
				if sz := 1<<20 + r.Int63n(15<<20); !seen[sz] {
					seen[sz] = true
					pools[i] = append(pools[i], sz)
				}
			}
		}
		seen := map[string]bool{}
		add := func(req service.PlanRequest) bool {
			o := planOp(req)
			if seen[string(o.body)] {
				return false
			}
			seen[string(o.body)] = true
			in.stream = append(in.stream, o)
			return true
		}
		for i, p := range plats {
			for _, sz := range pools[i] {
				for !add(keyFor(r, p, shapePipe, sz)) {
				}
			}
		}
		for len(in.stream) < w.streamLen+w.warmOps {
			i := r.Intn(len(plats))
			sh := pickShape(r, mix)
			if sh == shapeRefine && plats[i].clusters > 64 {
				continue // refinement at 128 clusters is a 100+ ms outlier
			}
			req := keyFor(r, plats[i], sh, pools[i][r.Intn(len(pools[i]))])
			if sh == shapePinned {
				req.Heuristic = "ECEF-LAT" // the build mix pins ECEF-LAT
			}
			add(req)
		}
		for _, o := range in.stream[:w.warmOps] {
			in.warm = append(in.warm, o.req)
		}
		in.stream = in.stream[w.warmOps:]
	case "mixed-serve":
		// The universe's order is its popularity rank.
		universe := keySet(r, plats, w.keysPerPlatform, servingShapes)
		z := newZipf(len(universe), w.zipfS)
		// The warm set is the most popular keys, as a running daemon would
		// hold them.
		in.warm = universe[:w.warmOps]
		for len(in.stream) < w.streamLen {
			switch {
			case r.Intn(100) < 5:
				// A batch of Zipf keys from one platform.
				first := universe[z.draw(r)]
				br := service.BatchRequest{Platform: first.Platform}
				for len(br.Requests) < w.batchSize {
					k := universe[z.draw(r)]
					if k.Platform != br.Platform {
						continue
					}
					k.Platform = ""
					br.Requests = append(br.Requests, k)
				}
				in.stream = append(in.stream, batchOp(br))
			default:
				in.stream = append(in.stream, planOp(universe[z.draw(r)]))
			}
		}
	case "plan-execute":
		grids := map[string]*gridbcast.Grid{}
		for _, p := range plats {
			g, err := service.LoadGridSource(p.source)
			if err != nil {
				return nil, err
			}
			grids[p.name] = g
		}
		var keys []service.PlanRequest
		seen := map[string]bool{}
		for i, p := range plats {
			// Shapes and sizes cycle, so the cost of the mix does not
			// hinge on a few draws. A pipelined execution costs in
			// proportion to its segment count (up to 100 ms at 4 MB), so
			// pipelined keys are one in five, at 512 KB-1 MB, and only on
			// the small grid. The large grid's unsegmented keys cost ~5x
			// more and get a quarter as many.
			shapes := []shape{shapePinned, shapeRefine, shapePipeLocal, shapePinned, shapeRefine}
			n := w.keysPerPlatform
			if i > 0 {
				shapes = []shape{shapePinned, shapeRefine}
				n /= 4
			}
			for k := 0; k < n; {
				sh := shapes[k%len(shapes)]
				size := sizes[1+(k/len(shapes))%3]
				if sh == shapePipeLocal {
					size = sizes[1+(k/len(shapes))%2]
				}
				req := keyFor(r, p, sh, size)
				b, _ := json.Marshal(req)
				if seen[string(b)] {
					continue
				}
				seen[string(b)] = true
				keys = append(keys, req)
				k++
			}
		}
		in.warm = keys
		small := keys[:w.keysPerPlatform]
		for i := 0; i < w.streamLen; i++ {
			// Most executions run on the ~270-node grid; one in ten on
			// the ~1090-node grid, whose executions cost ~5x more.
			req := small[r.Intn(len(small))]
			if r.Intn(10) == 0 {
				req = keys[len(small)+r.Intn(len(keys)-len(small))]
			}
			o := planOp(req)
			switch r.Intn(4) {
			case 0, 1: // ideal network: the prediction oracle applies
			case 2:
				o.net = gridbcast.NetConfig{Jitter: 0.1, Seed: 1 + r.Int63n(1<<40)}
			case 3:
				fp := faultPlan(r, grids[req.Platform], req.Root)
				if req.Pipelined {
					fp.Loss = nil // segmented execution injects link degradation only
				}
				o.net = gridbcast.NetConfig{Faults: fp}
			}
			in.stream = append(in.stream, o)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	return in, nil
}

// faultPlan draws a deterministic fault scenario for one execution: one
// degraded wide-area link and message loss on one of the root
// coordinator's links. Both trigger on virtual time only.
func faultPlan(r *rand.Rand, g *gridbcast.Grid, root int) *gridbcast.FaultPlan {
	coord := func(c int) int {
		e := 0
		for i := 0; i < c; i++ {
			e += g.Clusters[i].Nodes
		}
		return e
	}
	n := g.N()
	a, b := r.Intn(n), r.Intn(n-1)
	if b >= a {
		b++
	}
	other := r.Intn(n - 1)
	if other >= root {
		other++
	}
	return &gridbcast.FaultPlan{
		Degrade: []vnet.Degrade{{From: coord(a), To: coord(b), GapScale: 1.5 + r.Float64(), LatScale: 1.5}},
		Loss:    []vnet.Loss{{From: coord(root), To: coord(other), Drops: 1 + r.Intn(2)}},
	}
}
