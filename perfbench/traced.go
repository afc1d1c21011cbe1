package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gridbcast "gridbcast"
	"gridbcast/internal/sched"
	"gridbcast/internal/service"
)

// tracedHandler wraps the service handler with a span per request and
// remembers every platform session served, across reloads, so plan-cache
// counters can be summed over the whole pass.
type tracedHandler struct {
	next http.Handler
	reg  *service.Registry
	tr   atomic.Pointer[tracer]

	mu       sync.Mutex
	sessions map[*gridbcast.Session]bool
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	start := time.Now()
	h.next.ServeHTTP(w, r)
	if tr != nil {
		// The client sends "<round-trip span id>/<request index>".
		id, idx, _ := strings.Cut(r.Header.Get(spanHeader), "/")
		parent, _ := strconv.ParseInt(id, 10, 64)
		req, _ := strconv.ParseInt(idx, 10, 64)
		tr.record(0, "service.handler", parent, req, start, time.Now())
	}
	if r.URL.Path == "/admin/reload" {
		h.track()
	}
}

func (h *tracedHandler) track() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.reg.Platforms() {
		h.sessions[p.Session] = true
	}
}

func (h *tracedHandler) cacheStats() gridbcast.CacheStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum gridbcast.CacheStats
	for s := range h.sessions {
		cs := s.CacheStats()
		sum.Hits += cs.Hits
		sum.Misses += cs.Misses
		sum.Collapsed += cs.Collapsed
		sum.Evicted += cs.Evicted
	}
	return sum
}

// discardWriter is a ResponseWriter that keeps nothing, so handler
// allocations can be counted without a transport.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// runTraced replays the workload's seeded inputs in-process and reports
// the per-layer metrics. The layers are timed from here, around calls to
// their public functions:
//
//	gridbcastd  net/http round trips against service.Server's handler
//	service     handler spans; strict decode; EncodePlan + JSON encode
//	gridbcast   Session.PlanInfo / Session.Execute
//	plancache   Session.CacheStats deltas and retained heap
//	sched       NewProblem, EnginePool.Schedule, Pipelined.BestContext, RefineContext
//	topology    Registry.Reload
//	mpi         Session.Execute results
func runTraced(cfg config, in *inputs, m *measured) error {
	w := cfg.w
	tr := newTracer()
	specs := serviceSpecs(in.platforms)
	reg, err := service.NewRegistry(specs, w.cacheCap)
	if err != nil {
		return err
	}
	h := &tracedHandler{next: service.New(reg, service.Config{}).Handler(), reg: reg,
		sessions: map[*gridbcast.Session]bool{}}
	h.track()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	t := newTarget(ln.Addr().String(), w.conns)
	defer t.close()
	if err := sendAll(t, warmOps(in)); err != nil {
		return err
	}
	// Only plan and batch requests go over the wire here; the library
	// workload's network settings apply to the execution replay below.
	s := &stream{ops: in.stream}

	// Tracing overhead: the same closed loop with and without spans.
	capTr := newTracer()
	untraced := pass{conns: w.conns, dur: cfg.share(0.12)}.run(t, s)
	h.tr.Store(capTr)
	traced := pass{conns: w.conns, dur: cfg.share(0.12), tr: capTr}.run(t, s)
	u, v := untraced.throughput(), traced.throughput()
	m.values["trace.overhead_pct"] = 100 * (u - v) / u
	logf("  tracing overhead: %.0f ops/s untraced, %.0f ops/s traced", u, v)

	// The workload-shaped traced pass.
	h.tr.Store(tr)
	or := newOracle(cfg.seed, max(w.oracleEvery/4, 1))
	cs0 := h.cacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	main := pass{conns: w.conns, rate: w.rate, dur: cfg.share(0.3), check: or.check, tr: tr, reloadEvery: w.reloadEvery}.run(t, s)
	runtime.ReadMemStats(&ms1)
	h.tr.Store(nil)
	cs1 := h.cacheStats()
	for _, p := range []passResult{untraced, traced, main} {
		m.attempted += p.attempted
		m.failed += p.failed
		m.notes = append(m.notes, p.errs...)
	}
	ops := float64(max(main.attempted, 1))
	spans := tr.snapshot()
	self := selfTimes(spans)
	m.values["loadgen.lag_p99_us"] = summarize(main.lag, 0.99).tail
	m.values["gridbcastd.roundtrip_p50_us"] = median(byName(spans, "gridbcastd.roundtrip", nil))
	m.values["gridbcastd.self_p50_us"] = median(byName(spans, "gridbcastd.roundtrip", self))
	m.values["gridbcastd.conns_opened"] = float64(t.dials.Load())
	m.values["service.handler_p50_us"] = median(byName(spans, "service.handler", nil))
	lookups := float64(cs1.Hits + cs1.Misses + cs1.Collapsed - cs0.Hits - cs0.Misses - cs0.Collapsed)
	m.values["plancache.hit_ratio"] = float64(cs1.Hits-cs0.Hits) / max(lookups, 1)
	m.values["plancache.evicted_per_kop"] = 1000 * float64(cs1.Evicted-cs0.Evicted) / ops
	m.values["plancache.collapsed_per_kop"] = 1000 * float64(cs1.Collapsed-cs0.Collapsed) / ops
	m.values["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	m.values["runtime.gc_cycles_per_kop"] = 1000 * float64(ms1.NumGC-ms0.NumGC) / ops

	// The topology layer's operation: a registry reload, timed three
	// times.
	h.mu.Lock()
	h.sessions = nil
	h.mu.Unlock()
	var reloads []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := reg.Reload(); err != nil {
			return err
		}
		end := time.Now()
		tr.record(0, "topology.reload", 0, 0, start, end)
		reloads = append(reloads, float64(end.Sub(start).Nanoseconds())/1e6)
	}
	m.values["topology.reload_ms"] = median(reloads)
	if err := newSizeCost(in, m); err != nil {
		return err
	}

	if err := replayService(cfg, in, specs, tr, m); err != nil {
		return err
	}
	if err := replaySched(cfg, in, tr, m); err != nil {
		return err
	}
	if err := replayExec(cfg, in, specs, tr, m); err != nil {
		return err
	}

	n, bad := or.verify(in.platforms)
	for _, b := range bad {
		m.fail("oracle: %s", b)
	}
	logf("  oracle: %d sampled responses checked, %d mismatches", n, len(bad))
	if n == 0 {
		m.fail("oracle: no response was sampled")
	}

	all := tr.snapshot()
	logSelfTimes(all)
	path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	logf("  spans: %d written to %s", len(all), path)
	return nil
}

// replayOps is the head of the stream's single-plan requests.
func replayOps(in *inputs, n int) []*op {
	var out []*op
	for i := range in.stream {
		if len(out) == n {
			break
		}
		if in.stream[i].kind == opPlan {
			out = append(out, &in.stream[i])
		}
	}
	return out
}

// strictDecode decodes a plan request the way the service documents its
// decoding: unknown fields and trailing data are errors.
func strictDecode(body []byte, pr *service.PlanRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(pr); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// replayService splits the plan request into its service and facade
// steps on a fresh registry: strict decode, Session.PlanInfo, then
// EncodePlan plus the JSON encode. The replay runs twice over the same
// requests, so the second round hits whatever the first left resident.
func replayService(cfg config, in *inputs, specs []service.PlatformSpec, tr *tracer, m *measured) error {
	w := cfg.w
	// Sessions built the way the registry builds them, held here so the
	// plan cache can be dropped without dropping the platforms.
	grids := map[string]*gridbcast.Grid{}
	sessions := map[string]*gridbcast.Session{}
	newSessions := func() error {
		for name, g := range grids {
			s, err := gridbcast.NewSession(g, gridbcast.WithPlanCache(w.cacheCap))
			if err != nil {
				return err
			}
			s.Fingerprint()
			sessions[name] = s
		}
		return nil
	}
	for _, p := range in.platforms {
		g, err := service.LoadGridSource(p.source)
		if err != nil {
			return err
		}
		grids[p.name] = g
	}
	if err := newSessions(); err != nil {
		return err
	}
	ops := replayOps(in, w.replayOps)
	// The same requests also go straight through the service's handler,
	// with no transport, right after their replayed steps: the add-up
	// reference, timed in the second round when both sides hit.
	reg, err := service.NewRegistry(specs, w.cacheCap)
	if err != nil {
		return err
	}
	srv := service.New(reg, service.Config{})
	dw := &discardWriter{h: http.Header{}}
	var buf bytes.Buffer
	var respBytes, plans, schedules float64
	for round := 0; round < 2; round++ {
		for _, o := range ops {
			root := tr.id()
			start := time.Now()
			var pr service.PlanRequest
			if err := strictDecode(o.body, &pr); err != nil {
				return err
			}
			t1 := time.Now()
			tr.record(0, "service.decode", root, root, start, t1)
			sess, ok := sessions[pr.Platform]
			if !ok {
				return fmt.Errorf("replay: no platform %q", pr.Platform)
			}
			opts, err := reqOptions(&pr)
			if err != nil {
				return err
			}
			opts = append(opts, gridbcast.WithContext(context.Background()))
			t2 := time.Now()
			pl, outcome, err := sess.PlanInfo(gridbcast.NewRequest(opts...))
			t3 := time.Now()
			if err != nil {
				m.fail("replay PlanInfo %s: %v", o.body, err)
				continue
			}
			tr.record(0, "gridbcast.planinfo_"+outcome.String(), root, root, t2, t3)
			buf.Reset()
			err = json.NewEncoder(&buf).Encode(service.PlanResponse{
				Platform: pr.Platform, Generation: 1,
				Fingerprint: fmt.Sprintf("%016x", sess.Fingerprint()),
				Outcome:     outcome.String(), Plan: service.EncodePlan(pl),
			})
			end := time.Now()
			if err != nil {
				return err
			}
			tr.record(0, "service.encode", root, root, t3, end)
			tr.record(root, "service.replay", 0, root, start, end)
			r := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
			t4 := time.Now()
			srv.Handler().ServeHTTP(dw, r)
			if round == 1 {
				tr.record(0, "service.handler_direct", 0, root, t4, time.Now())
			}
			respBytes += float64(buf.Len())
			if outcome == gridbcast.PlanBuilt {
				plans++
				schedules += float64(pl.Stats.Schedules)
			}
		}
	}
	m.attempted += int64(2 * len(ops))

	// Heap retained per resident plan: the live heap with the caches as
	// the replay left them, minus the live heap once fresh sessions on
	// the same platforms have replaced them.
	var resident uint64
	for _, s := range sessions {
		cs := s.CacheStats()
		resident += cs.Misses - cs.Evicted
	}
	var ms0, ms1 runtime.MemStats
	liveHeap(&ms0)
	if err := newSessions(); err != nil {
		return err
	}
	liveHeap(&ms1)
	m.values["plancache.retained_kb_per_plan"] = (float64(ms0.HeapAlloc) - float64(ms1.HeapAlloc)) / 1024 / float64(max(resident, 1))
	spans := tr.snapshot()
	self := selfTimes(spans)
	dec := median(byName(spans, "service.decode", nil))
	hit := median(byName(spans, "gridbcast.planinfo_hit", nil))
	enc := median(byName(spans, "service.encode", nil))
	m.values["service.decode_p50_us"] = dec
	m.values["service.encode_p50_us"] = enc
	m.values["service.self_p50_us"] = median(byName(spans, "service.replay", self))
	m.values["service.resp_bytes"] = respBytes / float64(max(2*len(ops), 1))
	m.values["gridbcast.planinfo_hit_p50_us"] = hit
	m.values["gridbcast.planinfo_built_p50_us"] = median(byName(spans, "gridbcast.planinfo_built", nil))
	m.values["gridbcast.schedules_per_plan"] = schedules / max(plans, 1)

	// Handler allocations, every request now resident.
	n := min(len(ops), 400)
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, ops[i].path, bytes.NewReader(ops[i].body))
	}
	runtime.ReadMemStats(&ms0)
	for _, r := range reqs {
		srv.Handler().ServeHTTP(dw, r)
	}
	runtime.ReadMemStats(&ms1)
	m.values["service.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(n, 1))
	// ROADMAP's add-up rule: on hits, the steps account for the handler.
	handler := median(byName(spans, "service.handler_direct", nil))
	ratio := (dec + hit + enc) / handler
	m.values["service.addup_ratio"] = ratio
	logf("  add-up: decode %.1fus + planinfo hit %.1fus + encode %.1fus = %.1fus vs direct handler %.1fus (ratio %.2f); handler behind net/http %.1fus",
		dec, hit, enc, dec+hit+enc, handler, ratio, m.values["service.handler_p50_us"])
	return nil
}

// replaySched rebuilds the replayed requests' plans layer by layer, the
// way Session plans them: one costed problem shared by every candidate
// heuristic, one engine-pool schedule per candidate, refinement of the
// pinned candidate, or one pipelined ladder per candidate.
func replaySched(cfg config, in *inputs, tr *tracer, m *measured) error {
	grids := map[string]*gridbcast.Grid{}
	for _, p := range in.platforms {
		g, err := service.LoadGridSource(p.source)
		if err != nil {
			return err
		}
		grids[p.name] = g
	}
	var keys []service.PlanRequest
	seen := map[string]bool{}
	for _, o := range replayOps(in, len(in.stream)) {
		if len(keys) == cfg.w.schedKeys {
			break
		}
		if !seen[string(o.body)] {
			seen[string(o.body)] = true
			keys = append(keys, o.req)
		}
	}
	ctx := context.Background()
	ep := sched.NewEnginePool()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, pr := range keys {
		g := grids[pr.Platform]
		opt := sched.Options{Overlap: pr.Overlap, SegmentedLocal: pr.SegmentedLocal}
		hs := sched.Paper()
		if pr.Heuristic != "" {
			h, err := gridbcast.ParseHeuristic(pr.Heuristic)
			if err != nil {
				return err
			}
			hs = []sched.Heuristic{h}
		}
		root := tr.id()
		start := time.Now()
		if pr.Pipelined {
			for _, h := range hs {
				t0 := time.Now()
				_, err := sched.Pipelined{Base: h, Ladder: sched.DefaultSegmentLadder(pr.Size)}.BestContext(ctx, ep, g, pr.Root, pr.Size, opt)
				if err != nil {
					return err
				}
				tr.record(0, "sched.ladder", root, root, t0, time.Now())
			}
		} else {
			t0 := time.Now()
			p, err := sched.NewProblem(g, pr.Root, pr.Size, opt)
			if err != nil {
				return err
			}
			tr.record(0, "sched.problem", root, root, t0, time.Now())
			for _, h := range hs {
				t1 := time.Now()
				sc := ep.Schedule(h, p)
				t2 := time.Now()
				tr.record(0, "sched.schedule", root, root, t1, t2)
				if pr.Refine != nil {
					if _, err := sched.RefineContext(ctx, p, sc, *pr.Refine); err != nil {
						return err
					}
					tr.record(0, "sched.refine", root, root, t2, time.Now())
				}
			}
		}
		tr.record(root, "sched.build", 0, root, start, time.Now())
	}
	runtime.ReadMemStats(&ms1)
	m.values["sched.allocs_per_build"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(len(keys), 1))
	spans := tr.snapshot()
	m.values["sched.problem_p50_us"] = median(byName(spans, "sched.problem", nil))
	m.values["sched.schedule_p50_us"] = median(byName(spans, "sched.schedule", nil))
	m.values["sched.ladder_p50_ms"] = median(byName(spans, "sched.ladder", nil)) / 1e3
	m.values["sched.refine_p50_us"] = median(byName(spans, "sched.refine", nil))
	return nil
}

// replayExec executes plans on the virtual grid: the head of the library
// workload's stream with its network settings, or the serving workloads'
// replayed plans on an ideal network.
func replayExec(cfg config, in *inputs, specs []service.PlatformSpec, tr *tracer, m *measured) error {
	reg, err := service.NewRegistry(specs, cfg.w.cacheCap)
	if err != nil {
		return err
	}
	var ops []*op
	seen := map[string]bool{}
	for _, o := range replayOps(in, len(in.stream)) {
		if len(ops) == cfg.w.execOps {
			break
		}
		if cfg.w.library || !seen[string(o.body)] {
			seen[string(o.body)] = true
			ops = append(ops, o)
		}
	}
	var msgs, retries, gaps []float64
	for _, o := range ops {
		p, _ := reg.Lookup(o.req.Platform)
		opts, err := reqOptions(&o.req)
		if err != nil {
			return err
		}
		pl, err := p.Session.Plan(gridbcast.NewRequest(opts...))
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := p.Session.Execute(pl, o.net)
		end := time.Now()
		m.attempted++
		if err == nil {
			err = checkExec(o, pl, res, p.Session.Grid().TotalNodes())
		}
		if err != nil {
			m.fail("%v", err)
			continue
		}
		tr.record(0, "mpi.execute", 0, 0, start, end)
		msgs = append(msgs, float64(res.Messages))
		retries = append(retries, float64(res.Retries))
		if o.net.Jitter == 0 && o.net.Faults == nil {
			gaps = append(gaps, math.Abs(res.Makespan-pl.Makespan)/pl.Makespan)
		}
	}
	m.values["mpi.execute_p50_ms"] = median(byName(tr.snapshot(), "mpi.execute", nil)) / 1e3
	m.values["mpi.messages_per_exec"] = mean(msgs)
	m.values["mpi.retries_per_exec"] = mean(retries)
	m.values["mpi.predict_exec_gap"] = mean(gaps)
	return nil
}

// logSelfTimes prints each span name's median duration and self time.
func logSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	logf("  %-30s %8s %12s %12s", "span", "count", "p50 us", "self p50 us")
	for _, n := range sorted {
		d := byName(spans, n, nil)
		logf("  %-30s %8d %12.1f %12.1f", n, len(d), median(d), median(byName(spans, n, self)))
	}
}

// newSizeCost measures the heap the program keeps for each message size it
// has costed: the workload's largest platform costs sizeProbes sizes it has
// not seen (topology's Grid.EdgeCosts), and the live-heap growth is shared
// out per size. The program caches these tables without bound, so every
// distinct size a server sees stays resident.
func newSizeCost(in *inputs, m *measured) error {
	const sizeProbes = 64
	big := in.platforms[0]
	for _, p := range in.platforms {
		if p.clusters > big.clusters {
			big = p
		}
	}
	g, err := service.LoadGridSource(big.source)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	liveHeap(&ms0)
	for i := 0; i < sizeProbes; i++ {
		g.EdgeCosts(int64(3<<20 + 4093*i))
	}
	liveHeap(&ms1)
	m.values["topology.newsize_kb"] = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / 1024 / sizeProbes
	runtime.KeepAlive(g)
	return nil
}

// liveHeap reads memory statistics after two collections, the second of
// which also frees what sync.Pools held across the first.
func liveHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}
