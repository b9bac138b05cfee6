package serve_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"srlproc/internal/serve"
)

// BenchmarkSimulateHit is one /v1/simulate memo hit through the server's
// handler, without a network: decode, validate, admission, the one-point
// sweep that finds the cached result, and the result document's encoding.
// The cache is warmed by one miss before the clock starts.
func BenchmarkSimulateHit(b *testing.B) {
	h := serve.New(serve.Config{}).Handler()
	const body = `{"design":"srl","suite":"SFP2K","run_uops":10000,"warmup_uops":2000}`
	simulate := func(want string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Srlproc-Cache") != want {
			b.Fatalf("status %d, cache %q (want %q)", rec.Code, rec.Header().Get("X-Srlproc-Cache"), want)
		}
	}
	simulate("miss")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulate("hit")
	}
}
