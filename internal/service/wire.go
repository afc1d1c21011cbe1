package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
	"weak"

	gridbcast "gridbcast"
)

// The /v1/plan and /v1/plan/batch success bodies are written by hand:
// the constant head of the envelope is rendered once per platform, the
// plan object once per cached plan, and each request appends only its
// outcome and elapsed time. The output is byte-identical to
// json.NewEncoder(w).Encode(PlanResponse{...}) and Encode(BatchResponse{...})
// (pinned by TestWireEnvelopeByteIdentical). See DESIGN.md §13.

// wireHead is one platform's constant envelope prefixes.
type wireHead struct {
	plan  []byte // {"platform":…,"generation":…,"fingerprint":"…","outcome":"
	batch []byte // {"platform":…,"generation":…,"elapsed_us":
}

func newWireHead(name string, gen, fingerprint uint64) wireHead {
	q, _ := json.Marshal(name) // a string always marshals
	common := fmt.Sprintf(`{"platform":%s,"generation":%d,`, q, gen)
	return wireHead{
		plan:  fmt.Appendf(nil, `%s"fingerprint":"%016x","outcome":"`, common, fingerprint),
		batch: fmt.Appendf(nil, `%s"elapsed_us":`, common),
	}
}

// planWire memoizes each cacheable plan's wire bytes, exactly
// json.Marshal(EncodePlan(pl)). Cached plans are shared and never
// mutated, and every change to a plan's content (a rebuild, a Replan
// migration, a registry reload) yields a new *Plan, so the pointer is
// the key. The key is weak and a GC cleanup deletes the entry once its
// plan is collected: the memo holds the bytes of at most the plans that
// are resident in some plan cache or in flight.
type planWire struct {
	mu sync.Mutex
	m  map[weak.Pointer[gridbcast.Plan]][]byte
}

// bytes returns pl's wire bytes, encoding and remembering them on first
// use. Only plans the plan cache shares may be passed: a plan built for
// one request (no_cache) would pay the insert and cleanup for nothing.
func (pw *planWire) bytes(pl *gridbcast.Plan) ([]byte, error) {
	k := weak.Make(pl)
	pw.mu.Lock()
	b, ok := pw.m[k]
	pw.mu.Unlock()
	if ok {
		return b, nil
	}
	b, err := json.Marshal(EncodePlan(pl))
	if err != nil {
		return nil, err
	}
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if prev, ok := pw.m[k]; ok {
		return prev, nil
	}
	if pw.m == nil {
		pw.m = make(map[weak.Pointer[gridbcast.Plan]][]byte)
	}
	pw.m[k] = b
	runtime.AddCleanup(pl, pw.forget, k)
	return b, nil
}

func (pw *planWire) forget(k weak.Pointer[gridbcast.Plan]) {
	pw.mu.Lock()
	delete(pw.m, k)
	pw.mu.Unlock()
}

// len reports the number of memoized plans.
func (pw *planWire) len() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return len(pw.m)
}

// planBytes returns the plan object's wire bytes: memoized for a plan the
// cache shares, encoded afresh for a no_cache plan.
func (s *Server) planBytes(pl *gridbcast.Plan, noCache bool) ([]byte, error) {
	if noCache {
		return json.Marshal(EncodePlan(pl))
	}
	return s.wire.bytes(pl)
}

// appendPlanResponse appends the PlanResponse body, trailing newline
// included.
func appendPlanResponse(b []byte, h *wireHead, outcome string, elapsed time.Duration, plan []byte) []byte {
	b = append(b, h.plan...)
	b = append(b, outcome...) // "built", "hit" or "collapsed": nothing to escape
	b = append(b, `","elapsed_us":`...)
	b = appendFloat(b, us(elapsed))
	b = append(b, `,"plan":`...)
	b = append(b, plan...)
	return append(b, "}\n"...)
}

// appendBatchResponse appends the BatchResponse body, trailing newline
// included. plans[i] is slot i's plan bytes, or nil when the slot failed
// with errs[i].
func appendBatchResponse(b []byte, h *wireHead, elapsed time.Duration, plans [][]byte, errs []*string) []byte {
	b = append(b, h.batch...)
	b = appendFloat(b, us(elapsed))
	b = append(b, `,"plans":[`...)
	for i, pl := range plans {
		if i > 0 {
			b = append(b, ',')
		}
		if pl == nil {
			pl = []byte("null")
		}
		b = append(b, pl...)
	}
	b = append(b, `],"errors":[`...)
	for i, e := range errs {
		if i > 0 {
			b = append(b, ',')
		}
		if e == nil {
			b = append(b, "null"...)
			continue
		}
		q, _ := json.Marshal(*e) // a string always marshals
		b = append(b, q...)
	}
	return append(b, "]}\n"...)
}

// appendFloat appends f the way encoding/json writes a float64: shortest
// round-trip digits, exponent form only outside [1e-6, 1e21), and a
// two-digit negative exponent trimmed to one (e-07 → e-7). f is finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// bodyPool recycles response buffers. A buffer that grew past
// maxPooledBody (a large batch) is dropped rather than pinned.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

const maxPooledBody = 256 << 10

// jsonContentType is shared by every hand-written response; net/http only
// reads header values.
var jsonContentType = []string{"application/json"}

// writeBody writes a complete 200 JSON body in one Write, with its
// Content-Length so net/http never chunks it, then returns the buffer bp
// lent body's storage to the pool.
func writeBody(w http.ResponseWriter, bp *[]byte, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.Write(body)
	if cap(body) <= maxPooledBody {
		*bp = body[:0]
		bodyPool.Put(bp)
	}
}
