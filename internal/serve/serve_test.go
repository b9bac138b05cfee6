package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/serve"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// post sends a JSON body and returns the response.
func post(t *testing.T, client *http.Client, url, body string) *http.Response {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b
}

// waitInflight polls /healthz until the server reports at least n running
// jobs.
func waitInflight(t *testing.T, client *http.Client, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			var doc struct {
				InFlight int `json:"inflight"`
			}
			b := readAll(t, resp)
			if json.Unmarshal(b, &doc) == nil && doc.InFlight >= n {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never reached %d in-flight jobs", n)
}

// TestSimulateMatchesDirectSweepRun is the end-to-end identity check: a
// point served over HTTP must answer with byte-identical Results JSON to
// the same point run through sweep.Run directly.
func TestSimulateMatchesDirectSweepRun(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const runUops, warmup = 20_000, 4_000
	body := fmt.Sprintf(`{"design":"srl","suite":"SINT2K","run_uops":%d,"warmup_uops":%d}`, runUops, warmup)
	resp := post(t, ts.Client(), ts.URL+"/v1/simulate", body)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Srlproc-Cache") != "miss" {
		t.Fatalf("first request cache header: %q", resp.Header.Get("X-Srlproc-Cache"))
	}

	cfg := core.DefaultConfig(core.DesignSRL)
	cfg.RunUops = runUops
	cfg.WarmupUops = warmup
	rep, err := sweep.Run(context.Background(),
		[]sweep.Point{{Label: "direct", Cfg: cfg, Suite: trace.SINT2K}},
		sweep.Options{Workers: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep.Points[0].Results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
		t.Fatalf("HTTP Results JSON differs from direct sweep.Run:\nhttp:   %.200s\ndirect: %.200s", got, want)
	}
	if fp := resp.Header.Get("X-Srlproc-Point"); len(fp) != 16 {
		t.Fatalf("fingerprint header %q", fp)
	}
}

// TestIdempotentRetryHitsCache pins the idempotency key path: a retried
// identical request collapses onto the memo cache and answers byte-for-
// byte the same.
func TestIdempotentRetryHitsCache(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"design":"baseline","suite":"WEB","run_uops":15000,"warmup_uops":3000}`
	first := post(t, ts.Client(), ts.URL+"/v1/simulate", body)
	firstDoc := readAll(t, first)
	second := post(t, ts.Client(), ts.URL+"/v1/simulate", body)
	secondDoc := readAll(t, second)

	if first.Header.Get("X-Srlproc-Cache") != "miss" || second.Header.Get("X-Srlproc-Cache") != "hit" {
		t.Fatalf("cache headers: first=%q second=%q",
			first.Header.Get("X-Srlproc-Cache"), second.Header.Get("X-Srlproc-Cache"))
	}
	if first.Header.Get("X-Srlproc-Point") != second.Header.Get("X-Srlproc-Point") {
		t.Fatal("idempotency keys differ for identical requests")
	}
	if !bytes.Equal(firstDoc, secondDoc) {
		t.Fatal("retried request answered differently")
	}
	if st := srv.Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after retry: %+v", st)
	}
}

// TestPointHeaderIsPointFingerprint: X-Srlproc-Point is the point's
// core.PointFingerprint, on the miss that simulates it and on the hit that
// replays it.
func TestPointHeaderIsPointFingerprint(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"design":"large","suite":"MM","run_uops":3000,"warmup_uops":500,"seed":7,"stq_size":256}`
	cfg := core.DefaultConfig(core.DesignLargeSTQ)
	cfg.RunUops, cfg.WarmupUops, cfg.Seed, cfg.STQSize = 3000, 500, 7, 256
	want := fmt.Sprintf("%016x", core.PointFingerprint(cfg, trace.MM))
	for _, cache := range []string{"miss", "hit"} {
		resp := post(t, ts.Client(), ts.URL+"/v1/simulate", body)
		doc := readAll(t, resp)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Srlproc-Cache") != cache {
			t.Fatalf("status %d, cache %q (want %q): %.200s", resp.StatusCode, resp.Header.Get("X-Srlproc-Cache"), cache, doc)
		}
		if got := resp.Header.Get("X-Srlproc-Point"); got != want {
			t.Fatalf("%s: X-Srlproc-Point %s, core.PointFingerprint %s", cache, got, want)
		}
	}
}

// TestLoadShedding pins backpressure: with one execution slot and no
// queue, a second concurrent job is shed with 429 + Retry-After instead
// of queueing.
func TestLoadShedding(t *testing.T) {
	srv := serve.New(serve.Config{MaxConcurrent: 1, QueueDepth: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A deliberately oversized job, bounded by its own deadline so the
	// test server can close cleanly.
	slow := `{"design":"srl","suite":"SFP2K","run_uops":500000000,"timeout_ms":3000}`
	slowDone := make(chan *http.Response, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(slow))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		slowDone <- resp
	}()
	waitInflight(t, ts.Client(), ts.URL, 1)

	resp := post(t, ts.Client(), ts.URL+"/v1/simulate", `{"design":"baseline","suite":"WEB","run_uops":1000}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %s", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q", ra)
	}

	slowResp := <-slowDone
	if slowResp == nil {
		t.Fatal("slow request failed at transport level")
	}
	// The oversized job hit its own deadline: per-request timeouts
	// propagate into the simulation rather than pinning the worker.
	if slowResp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow job status %d, want 504", slowResp.StatusCode)
	}
}

// TestDeadlinePropagation pins that timeout_ms reaches core.RunContext: an
// oversized simulation returns 504 in deadline time, not run time.
func TestDeadlinePropagation(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	resp := post(t, ts.Client(), ts.URL+"/v1/simulate",
		`{"design":"srl","suite":"SFP2K","run_uops":500000000,"timeout_ms":200}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "deadline") {
		t.Fatalf("error body: %s", b)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("deadline took %v to propagate", d)
	}
}

// TestBadRequests pins the 400 surface: malformed JSON, unknown fields,
// unknown designs/suites/experiments.
func TestBadRequests(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct{ url, body string }{
		{"/v1/simulate", `{not json`},
		{"/v1/simulate", `{"design":"srl","suite":"SINT2K","no_such_field":1}`},
		{"/v1/simulate", `{"design":"warp-drive","suite":"SINT2K"}`},
		{"/v1/simulate", `{"design":"srl","suite":"NOPE"}`},
		{"/v1/sweep", `{"experiment":"fig99"}`},
	} {
		resp := post(t, ts.Client(), ts.URL+tc.url, tc.body)
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", tc.url, tc.body, resp.StatusCode, b)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

func parseSSE(t *testing.T, raw string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, block := range strings.Split(raw, "\n\n") {
		block = strings.TrimSpace(block)
		if block == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			}
		}
		if ev.event == "" {
			t.Fatalf("unlabeled SSE block: %q", block)
		}
		out = append(out, ev)
	}
	return out
}

// TestSSEProgressOrdering streams a sweep and pins the event contract:
// progress events carry strictly increasing done counts, and exactly one
// result event arrives, last.
func TestSSEProgressOrdering(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts.Client(), ts.URL+"/v1/sweep",
		`{"experiment":"table3","run_uops":2000,"warmup_uops":500,"workers":2,"stream":true}`)
	raw := string(readAll(t, resp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := parseSSE(t, raw)
	if len(events) < 2 {
		t.Fatalf("only %d events: %q", len(events), raw)
	}
	lastDone, total := 0, 0
	for i, ev := range events {
		switch ev.event {
		case "progress":
			if i == len(events)-1 {
				t.Fatal("stream ended on a progress event, result missing")
			}
			var p struct {
				Done  int `json:"done"`
				Total int `json:"total"`
			}
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("progress data %q: %v", ev.data, err)
			}
			if p.Done <= lastDone {
				t.Fatalf("progress out of order: done %d after %d", p.Done, lastDone)
			}
			lastDone, total = p.Done, p.Total
		case "result":
			if i != len(events)-1 {
				t.Fatalf("result event not last (index %d of %d)", i, len(events))
			}
			if !json.Valid([]byte(ev.data)) {
				t.Fatalf("result event carries invalid JSON: %.200s", ev.data)
			}
		default:
			t.Fatalf("unexpected event %q", ev.event)
		}
	}
	if total == 0 || lastDone != total {
		t.Fatalf("final progress %d/%d", lastDone, total)
	}
}

// TestSweepMatchesExperimentJSON pins that the non-streamed sweep document
// is the same document the direct bench runner marshals.
func TestSweepMatchesExperimentJSON(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts.Client(), ts.URL+"/v1/sweep", `{"experiment":"energy","run_uops":4000,"warmup_uops":1000}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("sweep document: %v", err)
	}
}

// TestMetricsAndHealth exercises the observability endpoints after a
// served job.
func TestMetricsAndHealth(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post(t, ts.Client(), ts.URL+"/v1/simulate",
		`{"design":"srl","suite":"MM","run_uops":10000,"warmup_uops":2000}`).Body.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	var doc struct {
		Server struct {
			Requests  uint64 `json:"requests_total"`
			Completed uint64 `json:"completed_total"`
		} `json:"server"`
		Cache      sweep.Stats       `json:"cache"`
		SimMetrics map[string]uint64 `json:"sim_metrics"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("metrics document: %v\n%s", err, b)
	}
	if doc.Server.Requests != 1 || doc.Server.Completed != 1 {
		t.Fatalf("server counters: %+v", doc.Server)
	}
	if doc.Cache.Misses != 1 || doc.Cache.Entries != 1 {
		t.Fatalf("cache stats: %+v", doc.Cache)
	}
	if len(doc.SimMetrics) == 0 {
		t.Fatal("no aggregated simulation metrics")
	}

	h, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := readAll(t, h)
	if h.StatusCode != http.StatusOK || !strings.Contains(string(hb), `"status":"ok"`) {
		t.Fatalf("healthz %d: %s", h.StatusCode, hb)
	}
}

// TestSweepExperimentAliasHeader pins the unified experiment dispatch:
// alias names resolve, and the canonical name is echoed in the
// X-Srlproc-Experiment response header.
func TestSweepExperimentAliasHeader(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts.Client(), ts.URL+"/v1/sweep",
		`{"experiment":"Figure10","run_uops":3000,"warmup_uops":500}`)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if h := resp.Header.Get("X-Srlproc-Experiment"); h != "fig10" {
		t.Fatalf("X-Srlproc-Experiment = %q, want fig10", h)
	}
}

// TestStoreEndpointsWithoutStore pins the storeless responses: both store
// endpoints answer 503 when no persistent tier is attached.
func TestStoreEndpointsWithoutStore(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/results/0123456789abcdef", "/v1/store/stats"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s: status %d (%s), want 503", path, resp.StatusCode, b)
		}
	}
}

// TestStoreWarmRestartOverHTTP is the service-level warm-restart round
// trip: simulate a point on a server backed by a disk store, "restart"
// (fresh server + memo cache over the same directory), and require the
// repeated request to be served from the store — cache-hit header, zero
// store misses, byte-identical body — and the persisted document to be
// retrievable via GET /v1/results/{fingerprint}.
func TestStoreWarmRestartOverHTTP(t *testing.T) {
	dir := t.TempDir()
	body := `{"design":"srl","suite":"WEB","run_uops":12000,"warmup_uops":2000}`

	st1, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := serve.New(serve.Config{Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())
	cold := post(t, ts1.Client(), ts1.URL+"/v1/simulate", body)
	coldDoc := readAll(t, cold)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.StatusCode, coldDoc)
	}
	fp := cold.Header.Get("X-Srlproc-Point")
	if len(fp) != 16 {
		t.Fatalf("fingerprint header %q", fp)
	}
	srv1.Cache().FlushStore() // what drain does before process exit

	// The persisted document is directly addressable.
	resp, err := ts1.Client().Get(ts1.URL + "/v1/results/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	fetched := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp.StatusCode, fetched)
	}
	if !bytes.Equal(fetched, coldDoc) {
		t.Fatal("GET /v1/results body differs from the simulate response")
	}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/results/ffffffffffffffff", http.StatusNotFound},
		{"/v1/results/xyz", http.StatusBadRequest},
	} {
		r, err := ts1.Client().Get(ts1.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, r)
		if r.StatusCode != tc.want {
			t.Fatalf("GET %s: status %d, want %d", tc.path, r.StatusCode, tc.want)
		}
	}
	ts1.Close()

	// "Restart": a fresh server, fresh memo cache, same store directory.
	st2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := serve.New(serve.Config{Store: st2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	warm := post(t, ts2.Client(), ts2.URL+"/v1/simulate", body)
	warmDoc := readAll(t, warm)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", warm.StatusCode, warmDoc)
	}
	if h := warm.Header.Get("X-Srlproc-Cache"); h != "hit" {
		t.Fatalf("warm cache header %q, want hit", h)
	}
	if !bytes.Equal(coldDoc, warmDoc) {
		t.Fatal("warm-restart response is not byte-identical")
	}
	stResp, err := ts2.Client().Get(ts2.URL + "/v1/store/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats store.Stats
	if err := json.Unmarshal(readAll(t, stResp), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Hits == 0 || stats.Misses != 0 || stats.Puts != 0 {
		t.Fatalf("warm store stats: %+v", stats)
	}
	if doc := srv2.Cache().Stats(); doc.Misses != 0 || doc.StoreHits == 0 {
		t.Fatalf("warm cache stats: %+v", doc)
	}
}
