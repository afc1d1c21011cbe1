package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	gridbcast "gridbcast"
	"gridbcast/internal/service"
)

// reqOptions translates a wire request to facade options the way the
// service documents it (PlanRequest field comments).
func reqOptions(pr *service.PlanRequest) ([]gridbcast.Option, error) {
	opts := []gridbcast.Option{
		gridbcast.WithRoot(pr.Root),
		gridbcast.WithSize(pr.Size),
		gridbcast.WithOverlap(pr.Overlap),
	}
	if pr.Heuristic != "" {
		h, err := gridbcast.ParseHeuristic(pr.Heuristic)
		if err != nil {
			return nil, err
		}
		opts = append(opts, gridbcast.WithHeuristic(h))
	}
	if pr.SegmentSize > 0 {
		opts = append(opts, gridbcast.WithSegments(pr.SegmentSize))
	}
	if pr.Pipelined {
		opts = append(opts, gridbcast.WithPipelined())
	}
	if pr.SegmentedLocal {
		opts = append(opts, gridbcast.WithSegmentedLocal())
	}
	if pr.Refine != nil {
		opts = append(opts, gridbcast.WithRefine(*pr.Refine))
	}
	if pr.NoCache {
		opts = append(opts, gridbcast.WithNoCache())
	}
	return opts, nil
}

// oracle holds a seeded sample of served responses and checks each one
// against an in-process Session.Plan plus service.EncodePlan on the same
// generated platform files.
type oracle struct {
	every int64 // sample one response in every
	salt  uint64

	mu      sync.Mutex
	samples []sample
}

type sample struct {
	o    *op
	body []byte
}

func newOracle(seed int64, every int64) *oracle {
	return &oracle{every: every, salt: uint64(seed)*0x9e3779b97f4a7c15 + 1}
}

// check is a pass's response check: it keeps the response when the
// seeded hash of its stream index selects it.
func (or *oracle) check(idx int64, o *op, body []byte) bool {
	if o.kind == opReload {
		var got service.ReloadResponse
		return json.Unmarshal(body, &got) == nil && got.Generation >= 2
	}
	h := (uint64(idx) + or.salt) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	if int64(h%uint64(or.every)) == 0 {
		or.mu.Lock()
		or.samples = append(or.samples, sample{o: o, body: append([]byte(nil), body...)})
		or.mu.Unlock()
	}
	return true
}

// verify plans every sampled request in-process and returns the number of
// samples checked and the mismatches found.
func (or *oracle) verify(plats []platform) (int, []string) {
	sessions := map[string]*gridbcast.Session{}
	for _, p := range plats {
		g, err := service.LoadGridSource(p.source)
		if err != nil {
			return 0, []string{err.Error()}
		}
		s, err := gridbcast.NewSession(g)
		if err != nil {
			return 0, []string{err.Error()}
		}
		sessions[p.name] = s
	}
	want := map[string][]byte{} // request body -> expected plan bytes
	expect := func(pr service.PlanRequest, platform string) ([]byte, error) {
		pr.Platform = platform
		key, _ := json.Marshal(pr)
		if b, ok := want[string(key)]; ok {
			return b, nil
		}
		opts, err := reqOptions(&pr)
		if err != nil {
			return nil, err
		}
		pl, err := sessions[platform].Plan(gridbcast.NewRequest(opts...))
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(service.EncodePlan(pl))
		if err != nil {
			return nil, err
		}
		want[string(key)] = b
		return b, nil
	}
	var bad []string
	mismatch := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	for _, s := range or.samples {
		switch s.o.kind {
		case opPlan:
			var got struct{ Plan json.RawMessage }
			if err := json.Unmarshal(s.body, &got); err != nil {
				mismatch("plan response: %v", err)
				continue
			}
			w, err := expect(s.o.req, s.o.req.Platform)
			if err != nil {
				mismatch("in-process plan %s: %v", s.o.body, err)
			} else if !bytes.Equal(got.Plan, w) {
				mismatch("plan bytes differ for %s", s.o.body)
			}
		case opBatch:
			var got struct {
				Plans  []json.RawMessage
				Errors []*string
			}
			if err := json.Unmarshal(s.body, &got); err != nil || len(got.Plans) != len(s.o.batch.Requests) || len(got.Errors) != len(got.Plans) {
				mismatch("batch response malformed (%v)", err)
				continue
			}
			for i, pr := range s.o.batch.Requests {
				w, err := expect(pr, s.o.batch.Platform)
				if err != nil || got.Errors[i] != nil || !bytes.Equal(got.Plans[i], w) {
					mismatch("batch slot %d differs for %s (%v)", i, s.o.body, err)
				}
			}
		}
	}
	return len(or.samples), bad
}
