package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"srlproc/internal/bench"
	"srlproc/internal/core"
	"srlproc/internal/sweep"
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

// TestJobsShareOnePlan: the jobs of one sweep share one enumeration of the
// sweep's points, and a job of another sweep enumerates its own, which is
// the list bench.ExperimentPoints gives for it.
func TestJobsShareOnePlan(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	job := func(seed, index int) []sweep.Point {
		t.Helper()
		body := fmt.Sprintf(`{"experiment":"table3","quick":true,"run_uops":2000,"warmup_uops":500,"seed":%d,"index":%d}`, seed, index)
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("job %s: status %d: %.200s", body, rec.Code, rec.Body.String())
		}
		s.planMu.Lock()
		defer s.planMu.Unlock()
		return s.planPoints
	}
	first, second := job(1, 0), job(1, 1)
	if len(first) == 0 || &first[0] != &second[0] {
		t.Fatal("two jobs of one sweep enumerated its points twice")
	}
	other := job(2, 0)
	if &other[0] == &first[0] {
		t.Fatal("a job of another sweep reused the first sweep's points")
	}
	o := bench.QuickOptions()
	o.RunUops, o.WarmupUops, o.Seed = 2000, 500, 2
	want, err := bench.ExperimentPoints(bench.Table3, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != len(want) {
		t.Fatalf("the kept plan has %d points, ExperimentPoints %d", len(other), len(want))
	}
	for i := range want {
		if core.PointFingerprint(other[i].Cfg, other[i].Suite) != core.PointFingerprint(want[i].Cfg, want[i].Suite) {
			t.Fatalf("point %d differs from ExperimentPoints'", i)
		}
	}

	// Jobs of two sweeps arriving at once, as a coordinator's dispatch
	// sends them: each gets its own sweep's list.
	firstPoint := map[uint64]uint64{}
	for _, seed := range []uint64{1, 2} {
		o.Seed = seed
		points, err := bench.ExperimentPoints(bench.Table3, o)
		if err != nil {
			t.Fatal(err)
		}
		firstPoint[seed] = core.PointFingerprint(points[0].Cfg, points[0].Suite)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := o
			for i := 0; i < 50; i++ {
				o.Seed = uint64(1 + (g+i)%2)
				points, err := s.jobPoints(bench.Table3, o)
				if err != nil {
					t.Error(err)
					return
				}
				if fp := core.PointFingerprint(points[0].Cfg, points[0].Suite); fp != firstPoint[o.Seed] {
					t.Errorf("a seed-%d job got another sweep's points", o.Seed)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
