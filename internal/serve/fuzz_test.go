package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/serve"
)

// oversizedSTQBody asks the large-STQ design for a store queue of 10^12
// entries, about 56 TB if the core allocated it. Config.Validate must
// reject it: the allocation would end the server with an out-of-memory
// error that no panic recovery catches.
const oversizedSTQBody = `{"design":"large","suite":"WS","stq_size":1000000000000}`

// simulateSeeds are FuzzSimulateRequest's seed bodies: the oversized
// queue, every /v1/simulate body serve_test.go sends, two that set the
// remaining knobs, and one large-STQ point at six queue sizes, from one
// entry to one past the largest valid queue, so the cache answers some of
// them from a smaller queue that never filled.
var simulateSeeds = []string{
	oversizedSTQBody,
	`{"design":"srl","suite":"SINT2K","run_uops":20000,"warmup_uops":4000}`,
	`{"design":"baseline","suite":"WEB","run_uops":15000,"warmup_uops":3000}`,
	`{"design":"srl","suite":"SFP2K","run_uops":500000000,"timeout_ms":3000}`,
	`{"design":"baseline","suite":"WEB","run_uops":1000}`,
	`{"design":"srl","suite":"SFP2K","run_uops":500000000,"timeout_ms":200}`,
	`{not json`,
	`{"design":"srl","suite":"SINT2K","no_such_field":1}`,
	`{"design":"warp-drive","suite":"SINT2K"}`,
	`{"design":"srl","suite":"NOPE"}`,
	`{"design":"srl","suite":"MM","run_uops":10000,"warmup_uops":2000}`,
	`{"design":"srl","suite":"WEB","run_uops":12000,"warmup_uops":2000}`,
	`{"design":"srl","suite":"WS","seed":7,"no_lcf":true,"no_fc":true,"no_cache":true}`,
	`{"design":"filtered","suite":"PROD","stq_size":64,"no_indexed_fwd":true}`,
	`{"design":"large","suite":"SERVER","stq_size":1024}`,
	`{"design":"large","suite":"SERVER","stq_size":16384}`,
	`{"design":"large","suite":"SERVER","stq_size":157}`,
	`{"design":"large","suite":"SERVER","stq_size":48}`,
	`{"design":"large","suite":"SERVER","stq_size":1}`,
	`{"design":"large","suite":"SERVER","stq_size":16385}`,
}

// The run lengths FuzzSimulateRequest forces on every body it can decode.
const fuzzWarmupUops, fuzzRunUops = 200, 2000

// FuzzSimulateRequest sends arbitrary bytes as a POST /v1/simulate body
// through the server's real handler. A body that decodes as a
// SimulateRequest, the way the handler decodes it, is sent re-encoded with
// a 2200-uop run and no timeout_ms, so the server's 10 s default deadline
// applies and a valid point finishes in milliseconds. Every input must
// answer 200 with a Results document of the forced length or a 4xx error
// envelope. A panic fails the input, and so does any other status: a run
// that overruns the deadline answers 504. A 200 answer, which may come
// from the memo cache, must equal the same body's fresh simulation
// (no_cache) byte for byte.
func FuzzSimulateRequest(f *testing.F) {
	for _, body := range simulateSeeds {
		f.Add([]byte(body))
	}
	h := serve.New(serve.Config{Workers: 1, DefaultTimeout: 10 * time.Second}).Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req serve.SimulateRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) == nil {
			req.WarmupUops, req.RunUops, req.TimeoutMs = fuzzWarmupUops, fuzzRunUops, 0
			var err error
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		w := post(body)
		switch {
		case w.Code == http.StatusOK:
			var res core.Results
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || res.Uops < fuzzRunUops {
				t.Fatalf("200 for %s without a Results document of %d uops (%v): %.300s", body, fuzzRunUops, err, w.Body.Bytes())
			}
			req.NoCache = true
			fresh, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if wf := post(fresh); wf.Code != http.StatusOK || !bytes.Equal(wf.Body.Bytes(), w.Body.Bytes()) {
				t.Fatalf("%s answered (X-Srlproc-Cache: %s)\n%.300s\nbut a fresh run answers %d\n%.300s",
					body, w.Header().Get("X-Srlproc-Cache"), w.Body.Bytes(), wf.Code, wf.Body.Bytes())
			}
		case w.Code >= 400 && w.Code < 500:
			decodeEnvelope(t, w.Body.Bytes())
		default:
			t.Fatalf("status %d for %s: %.300s", w.Code, body, w.Body.Bytes())
		}
	})
}
