package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRetryAfterFollowsSimulations: only a request that simulated folds
// its wall time into the Retry-After estimate, so memo hits, which take
// microseconds, leave the estimate at what the simulations cost.
func TestRetryAfterFollowsSimulations(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	const body = `{"design":"srl","suite":"SFP2K","run_uops":3000,"warmup_uops":500}`
	simulate := func(wantCache string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Srlproc-Cache") != wantCache {
			t.Fatalf("status %d, cache %q (want %q): %.200s",
				rec.Code, rec.Header().Get("X-Srlproc-Cache"), wantCache, rec.Body.String())
		}
	}
	simulate("miss")
	miss := s.avgJobNs.Load()
	if miss <= 0 {
		t.Fatalf("a simulation left the job-time estimate at %d ns", miss)
	}
	for i := 0; i < 8; i++ {
		simulate("hit")
	}
	if got := s.avgJobNs.Load(); got != miss {
		t.Fatalf("memo hits moved the job-time estimate from %d to %d ns", miss, got)
	}
}
