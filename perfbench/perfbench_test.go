package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gridbcast "gridbcast"
)

func TestSummarizeTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		p50      float64
		tail     float64
		tailQ    float64
		unsorted bool
	}{
		{n: 1000, p50: 500, tail: 990, tailQ: 0.99},
		{n: 2000, p50: 1000, tail: 1980, tailQ: 0.99},
		// Fewer than 1000 samples: the highest percentile leaving ten
		// samples beyond it.
		{n: 500, p50: 250, tail: 490, tailQ: 0.98},
		// Too few for any tail: the median.
		{n: 15, p50: 8, tail: 8, tailQ: 8.0 / 15},
	} {
		xs := seq(tc.n)
		d := summarize(xs, 0.99)
		if d.n != tc.n || d.p50 != tc.p50 || d.tail != tc.tail || math.Abs(d.tailQ-tc.tailQ) > 1e-12 {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at q %v", tc.n, d, tc.p50, tc.tail, tc.tailQ)
		}
		if beyond := tc.n - int(d.tail); tc.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("n=%d: summarize reordered its input", tc.n)
		}
	}
	if d := summarize(nil, 0.99); d.n != 0 {
		t.Errorf("empty sample: %+v", d)
	}
}

func TestWindowedTail(t *testing.T) {
	// Four windows of 1000 samples, each 100..199 ten times over (p99 at
	// rank 990 is 198); stalled windows are 50x slower.
	pass := func(stalled int) passResult {
		r := passResult{elapsed: 4 * time.Second}
		for w := 0; w < 4; w++ {
			for i := 0; i < 1000; i++ {
				x := float64(100 + i%100)
				if w < stalled {
					x *= 50
				}
				r.lat = append(r.lat, x)
				r.at = append(r.at, float64(w)+float64(i)/1000)
			}
		}
		return r
	}
	one, three := pass(1), pass(3)
	if got := one.windowedTail(4, 0.99); got != 198 {
		t.Errorf("one stalled window: tail %v, want 198", got)
	}
	if got := three.windowedTail(4, 0.99); got != 198*50 {
		t.Errorf("three stalled windows: tail %v, want %v", got, 198*50)
	}
}

func TestWindowP50s(t *testing.T) {
	// A 1 s pass has four 250 ms windows; one of them is stalled 50x, and
	// the median of the window medians ignores it.
	r := passResult{elapsed: time.Second}
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			x := float64(100 + i)
			if w == 2 {
				x *= 50
			}
			r.lat = append(r.lat, x)
			r.at = append(r.at, 0.25*float64(w)+float64(i)/400)
		}
	}
	p50s := r.windowP50s()
	if len(p50s) != 4 || p50s[0] != 149 || p50s[2] != 149*50 {
		t.Fatalf("window medians %v, want four with the third stalled", p50s)
	}
	if got := median(p50s); got != 149 {
		t.Errorf("median of window medians %v, want 149", got)
	}
}

func TestCheckExec(t *testing.T) {
	pl := &gridbcast.Plan{Makespan: 2}
	ideal := &op{body: []byte("ideal")}
	jitter := &op{body: []byte("jitter"), net: gridbcast.NetConfig{Jitter: 0.1}}
	for _, c := range []struct {
		o       *op
		res     gridbcast.Result
		wantErr bool
	}{
		{ideal, gridbcast.Result{Makespan: 2, NodesReached: 10}, false},
		{ideal, gridbcast.Result{Makespan: 2 * (1 + 1e-6), NodesReached: 10}, true},
		{jitter, gridbcast.Result{Makespan: 3, NodesReached: 10}, false},
		{jitter, gridbcast.Result{Makespan: 3, NodesReached: 9}, true},
		{jitter, gridbcast.Result{Makespan: 3, NodesReached: 1}, true},
	} {
		if err := checkExec(c.o, pl, &c.res, 10); (err != nil) != c.wantErr {
			t.Errorf("%s %+v: error %v, want error %v", c.o.body, c.res, err, c.wantErr)
		}
	}
}

func TestStaircase(t *testing.T) {
	capacity := 10000.0
	run := func(rate float64) (bool, dist) { return rate <= capacity, dist{} }
	budget := func(n int) func() bool { return func() bool { n--; return n >= 0 } }
	for _, start := range []float64{3000, 9000, 30000} {
		best, log := staircase(run, start, 1.25, 1.04, 1000, budget(40))
		// Every sustained staircase step is within one fine step below
		// capacity.
		if best > capacity || best < capacity/1.04 {
			t.Errorf("start %v: best %v, want within 4%% below %v (%v)", start, best, capacity, log)
		}
	}
	if _, log := staircase(run, 3000, 1.25, 1.04, 1000, budget(1)); len(log) != 2 {
		t.Errorf("budget of one more step ran %d: %v", len(log), log)
	}
	// With the budget spent, a search that started above capacity still
	// descends to a sustained rate, but not below the floor.
	never := func() bool { return false }
	if best, log := staircase(run, 30000, 1.25, 1.04, 1000, never); best != 30000/math.Pow(1.25, 5) {
		t.Errorf("spent budget from above capacity: best %v, want %v (%v)", best, 30000/math.Pow(1.25, 5), log)
	}
	if best, log := staircase(run, 30000, 1.25, 1.04, 20000, never); best != 0 || len(log) != 2 {
		t.Errorf("floor 20000: best %v after %d steps, want 0 after 2 (%v)", best, len(log), log)
	}
	// Steps within 5% of capacity pass or miss at random: the staircase
	// still settles within that band.
	r := rand.New(rand.NewSource(1))
	noisy := func(rate float64) (bool, dist) {
		if math.Abs(rate/capacity-1) < 0.05 {
			return r.Intn(2) == 0, dist{}
		}
		return rate <= capacity, dist{}
	}
	for seed := 0; seed < 20; seed++ {
		if best, log := staircase(noisy, 7000, 1.25, 1.04, 1000, budget(16)); best < 0.95*capacity/1.04 || best > 1.05*capacity {
			t.Errorf("noisy run %d: best %v (%v)", seed, best, log)
		}
	}
}

func TestSustained(t *testing.T) {
	base := passResult{elapsed: time.Second}
	for i := 0; i < 1000; i++ {
		base.lat = append(base.lat, 100)
		base.at = append(base.at, float64(i)/1000)
	}
	if ok, _ := sustained(base, time.Millisecond); !ok {
		t.Error("a fast pass is not sustained")
	}
	// A queue that builds up in the last window: its tail is one window
	// in four, so only the last window's median shows it.
	grown := base
	grown.lat = append([]float64(nil), base.lat...)
	for i := 750; i < 1000; i++ {
		grown.lat[i] = 800
	}
	if ok, _ := sustained(grown, time.Millisecond); ok {
		t.Error("a growing queue counts as sustained")
	}
	// A stall that delays a few requests at the end is not a queue.
	blip := base
	blip.lat = append([]float64(nil), base.lat...)
	for i := 980; i < 1000; i++ {
		blip.lat[i] = 5000
	}
	if ok, _ := sustained(blip, time.Millisecond); !ok {
		t.Error("a short stall at the end counts as a growing queue")
	}
	failed := base
	failed.failed = 1
	if ok, _ := sustained(failed, time.Millisecond); ok {
		t.Error("a pass with a failure counts as sustained")
	}
	slow := base
	slow.lat = append([]float64(nil), base.lat...)
	for i := range slow.lat {
		slow.lat[i] = 5000
	}
	if ok, _ := sustained(slow, time.Millisecond); ok {
		t.Error("a pass over its latency limit counts as sustained")
	}
}

// TestOpenLoopBacklog drives a server that takes 2 ms per request over one
// connection: 100 requests/s keeps up, 1000/s cannot and its queue grows.
func TestOpenLoopBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	tgt := newTarget(strings.TrimPrefix(srv.URL, "http://"), 1)
	defer tgt.close()
	s := &stream{ops: []op{{kind: opPlan, path: "/", body: []byte("{}")}}}
	under := pass{conns: 1, rate: 100, dur: 600 * time.Millisecond}.run(tgt, s)
	if ok, d := sustained(under, 50*time.Millisecond); !ok {
		t.Errorf("100/s against a 500/s server not sustained: %+v", d)
	}
	over := pass{conns: 1, rate: 1000, dur: 600 * time.Millisecond}.run(tgt, s)
	p50s := over.windows(stepWindows, func(w []float64) float64 { return summarize(w, 0.5).p50 })
	if p50s[len(p50s)-1] <= 2*p50s[0] {
		t.Errorf("1000/s against a 500/s server: window p50s %v did not grow", p50s)
	}
	if ok, _ := sustained(over, 50*time.Millisecond); ok {
		t.Error("overload counts as sustained")
	}
	// Latency is timed from the due time, so it includes the queueing.
	if d := summarize(over.lat, 0.99); d.tail < 50000 {
		t.Errorf("overloaded p99 %v us does not show the queue", d.tail)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // leaves root
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 30, 5: 5, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
	if xs := byName(spans, "a", got); len(xs) != 1 || xs[0] != 0.025 {
		t.Errorf("byName self = %v, want [0.025] us", xs)
	}
}

func TestTracerWrite(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	parent := tr.id()
	tr.record(0, "child", parent, 7, now, now.Add(time.Microsecond))
	tr.record(parent, "parent", 0, 7, now, now.Add(2*time.Microsecond))
	var nilTracer *tracer
	if nilTracer.id() != 0 || nilTracer.record(0, "x", 0, 0, now, now) != 0 {
		t.Error("a nil tracer recorded a span")
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 2 || !strings.Contains(string(b), `"parent":1`) {
		t.Errorf("span file:\n%s", b)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
		ia, err := generate(w, 5, a)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := generate(w, 5, b)
		if err != nil {
			t.Fatal(err)
		}
		ic, err := generate(w, 6, c)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ia.platforms {
			if p.source == "grid5000" {
				continue
			}
			fa, _ := os.ReadFile(p.source)
			fb, _ := os.ReadFile(ib.platforms[i].source)
			fc, _ := os.ReadFile(ic.platforms[i].source)
			if len(fa) == 0 || !bytes.Equal(fa, fb) {
				t.Errorf("%s: platform %s differs between runs of one seed", w.name, p.name)
			}
			if bytes.Equal(fa, fc) {
				t.Errorf("%s: platform %s is the same for seeds 5 and 6", w.name, p.name)
			}
		}
		if streamKey(ia) != streamKey(ib) {
			t.Errorf("%s: request stream differs between runs of one seed", w.name)
		}
		if streamKey(ia) == streamKey(ic) {
			t.Errorf("%s: request stream is the same for seeds 5 and 6", w.name)
		}
	}
}

func streamKey(in *inputs) string {
	var sb strings.Builder
	for _, req := range in.warm {
		b, _ := json.Marshal(req)
		sb.Write(b)
	}
	for _, o := range in.stream {
		sb.Write(o.body)
		if o.net.Faults != nil || o.net.Jitter > 0 {
			sb.WriteString("net")
		}
	}
	return sb.String()
}

// TestSmoke runs every workload briefly, untraced and traced, against a
// gridbcastd built from this checkout, and checks every metric is
// reported and every output was correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gridbcastd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gridbcastd")
	if out, err := exec.Command("go", "build", "-o", bin, "gridbcast/cmd/gridbcastd").CombinedOutput(); err != nil {
		t.Fatalf("build gridbcastd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{w: w, seed: 3, seconds: 1, trace: traced, setupReps: 2,
				daemon: bin, work: dir, spans: dir}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct %v, %d/%d failed, %d metrics", w.name, traced,
					res.Correct, res.Failed, res.Attempted, len(res.Metrics))
			}
			for _, name := range want {
				if v := res.Metrics[name]; math.IsNaN(v.Value) || v.Unit == "" {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, traced, name, v)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+"-seed3.spans.jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// TestBenchmarkJSON checks that every workload BENCHMARK.json lists is
// defined here (mixed-serve is defined but not listed) and that it lists
// exactly the metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %s is not defined", w.Name)
		}
	}
	if len(names) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists %v, the program defines %d workloads besides mixed-serve", names, len(workloads)-1)
	}
	for _, list := range []struct {
		json []struct{ Name, Unit string }
		code []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(list.json) != len(list.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(list.json), len(list.code))
		}
		for i, m := range list.json {
			if i < len(list.code) && (m.Name != list.code[i] || m.Unit != units[m.Name]) {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, list.code[i], units[list.code[i]])
			}
		}
	}
}

// TestRefKernel checks the reference kernel allocates nothing, so the
// program's garbage collector has no work from it, and that it does its
// work: the heap pops in order and the table walk is one full cycle.
func TestRefKernel(t *testing.T) {
	k := newRefKernel()
	if n := testing.AllocsPerRun(20, k.unit); n != 0 {
		t.Errorf("reference unit allocates %v times", n)
	}
	k.heap = k.heap[:0]
	for _, x := range k.src {
		k.push(x)
	}
	prev := math.Inf(-1)
	for len(k.heap) > 0 {
		if x := k.pop(); x < prev {
			t.Fatalf("heap popped %v after %v", x, prev)
		} else {
			prev = x
		}
	}
	j, steps := k.next[0], 1
	for ; j != 0; steps++ {
		j = k.next[j]
	}
	if steps != len(k.next) {
		t.Errorf("table walk cycles after %d of %d slots", steps, len(k.next))
	}
}

// TestHostScale checks the rescaling to the reference host: times divide
// by slow, rates the system sets multiply by it, and an open loop's
// throughput (its offered rate) and the other metrics stay as measured.
func TestHostScale(t *testing.T) {
	nominal := float64(refNominal.Nanoseconds()) / 1e3
	h := &hostSpeed{units: []float64{nominal * 1.5, nominal * 2, nominal * 2.5}}
	for _, open := range []bool{false, true} {
		m := newMeasured()
		for _, n := range endToEnd {
			m.values[n] = 10
		}
		h.scale(m, open)
		want := map[string]float64{
			"setup_s": 5, "latency_p50_us": 5, "server_cpu_us_per_op": 5,
			"max_rate_rps": 20, "throughput_rps": 20, "peak_rss_mb": 10, "success_frac": 10,
		}
		if open {
			want["throughput_rps"] = 10
		}
		for n, v := range want {
			if math.Abs(m.values[n]-v) > 1e-9 {
				t.Errorf("open=%v: %s = %v, want %v", open, n, m.values[n], v)
			}
		}
	}
}
