package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	gridbcast "gridbcast"
)

// encoderBytes is the reference rendering of a response body: what
// writeJSON produced for the planning routes before they were hand-written.
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// elapsedOf reads a served body's elapsed_us, so the reference rendering
// can be given the same value the handler measured.
func elapsedOf(t *testing.T, body []byte) float64 {
	t.Helper()
	var v struct {
		ElapsedUS float64 `json:"elapsed_us"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return v.ElapsedUS
}

// escapeNames need JSON escaping (quote, HTML-significant characters) or
// are otherwise unusual (a lone space, non-ASCII).
var escapeNames = []string{`a"b`, `<&>`, ` `, `grille-é→網`}

// TestWireEnvelopeByteIdentical pins the hand-written /v1/plan and
// /v1/plan/batch bodies to encoding/json's rendering of PlanResponse and
// BatchResponse: through the handler for platform names that need
// escaping, and through the append functions for elapsed times the
// handler cannot be made to measure.
func TestWireEnvelopeByteIdentical(t *testing.T) {
	var specs []PlatformSpec
	for _, name := range escapeNames {
		specs = append(specs, PlatformSpec{Name: name, Source: "grid5000"})
	}
	reg, err := NewRegistry(specs, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	elapsed := []time.Duration{0, time.Nanosecond, 999 * time.Nanosecond, 5*time.Hour + 7*time.Nanosecond}
	opts := []gridbcast.Option{gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1 << 20)}

	for _, name := range escapeNames {
		p, _ := reg.Lookup(name)
		qname, _ := json.Marshal(name)
		fp := fmt.Sprintf("%016x", p.Session.Fingerprint())

		// Built, then hit: the memo is filled by the first and served by
		// the second.
		for _, outcome := range []string{"built", "hit"} {
			body := fmt.Sprintf(`{"platform":%s,"heuristic":"ECEF-LAT","size":1048576}`, qname)
			w := post(t, s, "/v1/plan", body)
			if w.Code != http.StatusOK {
				t.Fatalf("%q %s: status %d: %s", name, outcome, w.Code, w.Body)
			}
			direct, err := p.Session.Plan(gridbcast.NewRequest(opts...))
			if err != nil {
				t.Fatal(err)
			}
			want := encoderBytes(t, PlanResponse{
				Platform: name, Generation: 1, Fingerprint: fp, Outcome: outcome,
				ElapsedUS: elapsedOf(t, w.Body.Bytes()), Plan: EncodePlan(direct),
			})
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("%q %s body:\n got %s\nwant %s", name, outcome, w.Body, want)
			}
			if got := w.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("Content-Type %q", got)
			}
			if got := w.Header().Get("Content-Length"); got != fmt.Sprint(len(want)) {
				t.Errorf("Content-Length %q, want %d", got, len(want))
			}
		}

		// A batch with a cached slot, a failed slot and a no_cache slot.
		body := fmt.Sprintf(`{"platform":%s,"requests":[
			{"heuristic":"ECEF-LAT","size":1048576},
			{"size":-7},
			{"heuristic":"FlatTree","size":65536,"no_cache":true}
		]}`, qname)
		w := post(t, s, "/v1/plan/batch", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%q batch: status %d: %s", name, w.Code, w.Body)
		}
		pl0, err := p.Session.Plan(gridbcast.NewRequest(opts...))
		if err != nil {
			t.Fatal(err)
		}
		pl2, err := p.Session.Plan(gridbcast.NewRequest(
			gridbcast.WithHeuristic(gridbcast.FlatTree), gridbcast.WithSize(65536), gridbcast.WithNoCache()))
		if err != nil {
			t.Fatal(err)
		}
		_, slotErr := p.Session.Plan(gridbcast.NewRequest(gridbcast.WithSize(-7)))
		if slotErr == nil {
			t.Fatal("negative size planned")
		}
		msg := slotErr.Error()
		want := encoderBytes(t, BatchResponse{
			Platform: name, Generation: 1, ElapsedUS: elapsedOf(t, w.Body.Bytes()),
			Plans:  []*PlanJSON{EncodePlan(pl0), nil, EncodePlan(pl2)},
			Errors: []*string{nil, &msg, nil},
		})
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%q batch body:\n got %s\nwant %s", name, w.Body, want)
		}

		// Elapsed times from zero to hours, through the append functions.
		planBytes, err := json.Marshal(EncodePlan(pl0))
		if err != nil {
			t.Fatal(err)
		}
		badMsg := "bad \"slot\" <&>\n\u2028"
		for _, d := range elapsed {
			got := appendPlanResponse(nil, &p.head, "collapsed", d, planBytes)
			want := encoderBytes(t, PlanResponse{
				Platform: name, Generation: 1, Fingerprint: fp, Outcome: "collapsed",
				ElapsedUS: us(d), Plan: EncodePlan(pl0),
			})
			if !bytes.Equal(got, want) {
				t.Errorf("%q elapsed %v:\n got %s\nwant %s", name, d, got, want)
			}
			got = appendBatchResponse(nil, &p.head, d, [][]byte{nil, planBytes}, []*string{&badMsg, nil})
			want = encoderBytes(t, BatchResponse{
				Platform: name, Generation: 1, ElapsedUS: us(d),
				Plans: []*PlanJSON{nil, EncodePlan(pl0)}, Errors: []*string{&badMsg, nil},
			})
			if !bytes.Equal(got, want) {
				t.Errorf("%q batch elapsed %v:\n got %s\nwant %s", name, d, got, want)
			}
		}
	}
}

// TestAppendFloatMatchesEncodingJSON covers the exponent branch, which no
// elapsed time reaches.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, 1, -1, 0.001, 0.999, 123.456, 1e-6, 9.99e-7, 1e-7, -2.5e-9, 5e-324,
		1e20, 1e21, 1.5e300, math.MaxFloat64, float64(math.MaxInt64) / 1e3, math.Copysign(0, -1),
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// servedPlan posts body and returns the served plan object's bytes.
func servedPlan(t *testing.T, s *Server, body string) (json.RawMessage, uint64) {
	t.Helper()
	w := post(t, s, "/v1/plan", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Generation uint64          `json:"generation"`
		Plan       json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Plan, resp.Generation
}

// TestPlanWireReload: after a reload that changes the platform, a hit
// serves the new generation's plan, never the old generation's memoized
// bytes.
func TestPlanWireReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	if err := gridbcast.Grid5000().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry([]PlatformSpec{{Name: "p", Source: path}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	const body = `{"platform":"p","heuristic":"ECEF-LAT","size":1048576}`
	servedPlan(t, s, body)
	old, gen := servedPlan(t, s, body)
	if gen != 1 {
		t.Fatalf("generation %d, want 1", gen)
	}

	if err := gridbcast.RandomGrid(3, 6).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if w := post(t, s, "/admin/reload", ""); w.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", w.Code, w.Body)
	}
	servedPlan(t, s, body)
	got, gen := servedPlan(t, s, body)
	if gen != 2 {
		t.Fatalf("generation %d, want 2", gen)
	}
	p, _ := reg.Lookup("p")
	direct, err := p.Session.Plan(gridbcast.NewRequest(
		gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(EncodePlan(direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("hit after reload serves\n %s\nwant\n %s", got, want)
	}
	if bytes.Equal(got, old) {
		t.Error("the reloaded platform plans identically; the test proves nothing")
	}
}

// TestPlanWireSkipsNoCache: a no_cache plan is built for one request and
// never enters the memo.
func TestPlanWireSkipsNoCache(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		servedPlan(t, s, `{"platform":"g5k","size":1048576,"no_cache":true}`)
	}
	w := post(t, s, "/v1/plan/batch", `{"platform":"g5k","requests":[{"size":65536,"no_cache":true}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body)
	}
	if n := s.wire.len(); n != 0 {
		t.Fatalf("memo holds %d entries after no_cache requests, want 0", n)
	}
	servedPlan(t, s, `{"platform":"g5k","size":1048576}`)
	if n := s.wire.len(); n != 1 {
		t.Fatalf("memo holds %d entries after one cached request, want 1", n)
	}
}

// TestPlanWireFreedAfterEviction: once the plan cache has evicted a plan
// and nothing else holds it, garbage collection frees its memo entry, so
// the memo never outgrows the resident plans.
func TestPlanWireFreedAfterEviction(t *testing.T) {
	const capacity, requests = 4, 40
	reg, err := NewRegistry([]PlatformSpec{{Name: "g5k", Source: "grid5000"}}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	for i := 0; i < requests; i++ {
		servedPlan(t, s, fmt.Sprintf(`{"platform":"g5k","heuristic":"FlatTree","size":%d}`, 1<<20+i))
	}
	p, _ := reg.Lookup("g5k")
	cs := p.Session.CacheStats()
	if cs.Evicted != requests-capacity {
		t.Fatalf("cache stats %+v: want %d evictions", cs, requests-capacity)
	}
	resident := int(cs.Misses - cs.Evicted)
	// Cleanups run on their own goroutine after the cycle that finds the
	// plan unreachable; give them a bounded number of cycles.
	n := s.wire.len()
	for try := 0; try < 100 && n > resident; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n = s.wire.len()
	}
	if n > resident {
		t.Fatalf("memo holds %d entries, want at most the %d resident plans", n, resident)
	}
}

// TestPlanWireConcurrentHits hammers a few keys from many goroutines
// (run under -race): every body carries the direct plan's bytes, and
// each plan is memoized once.
func TestPlanWireConcurrentHits(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 64})
	p, _ := s.reg.Lookup("g5k")
	sizes := []int64{1 << 16, 1 << 20}
	want := map[int64][]byte{}
	for _, size := range sizes {
		pl, err := p.Session.Plan(gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLA), gridbcast.WithSize(size)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(EncodePlan(pl))
		if err != nil {
			t.Fatal(err)
		}
		want[size] = b
	}
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				size := sizes[(w+i)%len(sizes)]
				rec := post(t, s, "/v1/plan", fmt.Sprintf(`{"platform":"g5k","heuristic":"ECEF-LA","size":%d}`, size))
				var resp struct {
					Plan json.RawMessage `json:"plan"`
				}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					t.Errorf("worker %d: status %d: %s", w, rec.Code, rec.Body)
					return
				}
				if !bytes.Equal(resp.Plan, want[size]) {
					t.Errorf("worker %d size %d: served plan differs from the direct plan", w, size)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.wire.len(); n != len(sizes) {
		t.Errorf("memo holds %d entries, want %d", n, len(sizes))
	}
}

// FuzzPlanRequest drives arbitrary bodies through POST /v1/plan: the
// handler never panics, answers 200 or a 4xx, and a 200 carries exactly
// the plan Session.Plan returns for the same options on the same session.
func FuzzPlanRequest(f *testing.F) {
	for _, body := range []string{
		`{"platform":"g5k","heuristic":"ECEF-LAT","root":2,"size":1048576}`,
		`{"platform":"g5k","root":0,"size":262144,"overlap":true}`,
		`{"platform":"g5k","heuristic":"ECEF-LA","root":1,"size":1048576,"pipelined":true,"segmented_local":true}`,
		`{"platform":"rnd","heuristic":"FEF","size":65536,"segment_size":4096,"no_cache":true}`,
		`{"platform":"g5k","heuristic":"ECEF","size":1048576,"refine":2}`,
		`{"platform":"g5k","size":9223372036854775807,"pipelined":true}`,
	} {
		f.Add([]byte(body))
	}
	reg, err := NewRegistry([]PlatformSpec{
		{Name: "g5k", Source: "grid5000"},
		{Name: "rnd", Source: "random:5:6"},
	}, 64)
	if err != nil {
		f.Fatal(err)
	}
	s := New(reg, Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := post(t, s, "/v1/plan", string(body))
		if w.Code != http.StatusOK {
			if w.Code < 400 || w.Code > 499 {
				t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
			}
			return
		}
		var resp struct {
			Plan json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body is not JSON: %v", err)
		}
		var pr PlanRequest
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&pr); err != nil {
			t.Fatalf("served a body the strict decoder rejects: %v", err)
		}
		opts, _, err := pr.options(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		p, _ := reg.Lookup(pr.Platform)
		direct, err := p.Session.Plan(gridbcast.NewRequest(opts...))
		if err != nil {
			t.Fatalf("served %q, but Session.Plan fails: %v", body, err)
		}
		want, err := json.Marshal(EncodePlan(direct))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Plan, want) {
			t.Fatalf("served plan for %q differs from Session.Plan:\n got %s\nwant %s", body, resp.Plan, want)
		}
	})
}
