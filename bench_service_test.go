package gridbcast_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbcast/internal/service"
)

// BenchmarkServePlan measures end-to-end POST /v1/plan handler throughput
// at the two cache extremes: "hit" replays one request (pure cache
// serving — decode, lookup, admission, write of the memoized plan),
// "miss" makes every request key unique so every plan is built.
// "hit-pipelined" replays a pipelined plan on a 32-cluster platform,
// whose body (over 4 KB) is larger than net/http's response buffer.
// Reports plans/s and the service histogram's p50/p99 alongside the
// standard ns/op.
func BenchmarkServePlan(b *testing.B) {
	g5k := service.PlatformSpec{Name: "g5k", Source: "grid5000"}
	bench := func(b *testing.B, spec service.PlatformSpec, body func(i int) string) {
		reg, err := service.NewRegistry([]service.PlatformSpec{spec},
			service.CacheCapacityFor(service.DefaultMaxInflight))
		if err != nil {
			b.Fatal(err)
		}
		s := service.New(reg, service.Config{})
		post := func(payload string) int {
			req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(payload))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			return w.Code
		}
		// Warm once so the "hit" variant never measures its own miss.
		if code := post(body(-1)); code != http.StatusOK {
			b.Fatalf("warmup status %d", code)
		}
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if code := post(body(i)); code != http.StatusOK {
				b.Fatalf("iteration %d: status %d", i, code)
			}
		}
		elapsed := time.Since(start)
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "plans/s")
		// The sort order puts "built" before "hit", so in the hit variant
		// the hit series (the measured path) wins the metric slot.
		for _, sn := range s.Metrics().Snapshot() {
			if sn.Outcome == "hit" || sn.Outcome == "built" {
				b.ReportMetric(sn.P50US, "p50_us")
				b.ReportMetric(sn.P99US, "p99_us")
			}
		}
	}
	b.Run("hit", func(b *testing.B) {
		bench(b, g5k, func(int) string {
			return `{"platform":"g5k","heuristic":"ECEF-LAT","size":1048576}`
		})
	})
	b.Run("miss", func(b *testing.B) {
		bench(b, g5k, func(i int) string {
			// i == -1 (warmup) and every iteration key differently.
			return fmt.Sprintf(`{"platform":"g5k","heuristic":"ECEF-LAT","size":%d}`, 1<<20+i+1)
		})
	})
	b.Run("hit-pipelined", func(b *testing.B) {
		bench(b, service.PlatformSpec{Name: "c32", Source: "random:1:32"}, func(int) string {
			return `{"platform":"c32","heuristic":"ECEF-LAT","size":16777216,"pipelined":true}`
		})
	})
}
