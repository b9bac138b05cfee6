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

// TestRetryAfterFollowsSweepSimulations: a sweep, streamed or not, and a
// cluster job fold their wall time into the Retry-After estimate only when
// they simulated a point. Sweeps and jobs the memo cache answered whole
// leave the estimate where the simulations put it.
func TestRetryAfterFollowsSweepSimulations(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post := func(path, body string) string {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %.200s", path, body, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	const params = `"experiment":"table3","quick":true,"run_uops":2000,"warmup_uops":500`
	estimate := s.avgJobNs.Load()
	for _, step := range []struct {
		name, path, body string
		simulates        bool
	}{
		{"first sweep", "/v1/sweep", `{` + params + `,"seed":1}`, true},
		{"repeated sweep", "/v1/sweep", `{` + params + `,"seed":1}`, false},
		{"repeated streamed sweep", "/v1/sweep", `{` + params + `,"seed":1,"stream":true}`, false},
		{"job of a cached point", "/v1/jobs", `{` + params + `,"seed":1,"index":1}`, false},
		{"job of a fresh point", "/v1/jobs", `{` + params + `,"seed":2,"index":1}`, true},
		{"job of the same point", "/v1/jobs", `{` + params + `,"seed":2,"index":1}`, false},
		{"fresh streamed sweep", "/v1/sweep", `{` + params + `,"seed":3,"stream":true}`, true},
	} {
		body := post(step.path, step.body)
		if strings.Contains(body, "event: error") {
			t.Fatalf("%s: %.300s", step.name, body)
		}
		got := s.avgJobNs.Load()
		if moved := got != estimate; moved != step.simulates {
			t.Fatalf("%s: job-time estimate %d -> %d ns, want moved = %v", step.name, estimate, got, step.simulates)
		}
		estimate = got
	}
}
