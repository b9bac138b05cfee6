package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"srlproc/internal/serve"
)

// decodeEnvelope parses the uniform v1 error document and fails the test
// when the body is anything else.
func decodeEnvelope(t *testing.T, body []byte) (code, message string, retryAfterMs int64) {
	t.Helper()
	var env struct {
		Error *struct {
			Code         string `json:"code"`
			Message      string `json:"message"`
			RetryAfterMs int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope (err %v): %s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env.Error.Code, env.Error.Message, env.Error.RetryAfterMs
}

// TestErrorEnvelopeUniformity sweeps every v1 endpoint's client-error
// paths and requires the one JSON envelope everywhere: wrong method
// (405 + Allow), wrong media type (415), malformed input (400), unknown
// paths (404). No handler may fall back to a plain-text error.
func TestErrorEnvelopeUniformity(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		status      int
		code        string
		allow       string // expected Allow header, when set
	}{
		{name: "simulate wrong method", method: http.MethodGet, path: "/v1/simulate",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: "POST"},
		{name: "sweep wrong method", method: http.MethodDelete, path: "/v1/sweep",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: "POST"},
		{name: "jobs wrong method", method: http.MethodGet, path: "/v1/jobs",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: "POST"},
		{name: "experiments wrong method", method: http.MethodPost, path: "/v1/experiments",
			contentType: "application/json", body: "{}",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: "GET"},
		{name: "results wrong method", method: http.MethodPost, path: "/v1/results/0123456789abcdef",
			contentType: "application/json", body: "{}",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: "GET"},
		{name: "store stats wrong method", method: http.MethodPut, path: "/v1/store/stats",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: "GET"},
		{name: "healthz wrong method", method: http.MethodPost, path: "/healthz",
			contentType: "application/json", body: "{}",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: "GET"},
		{name: "metrics wrong method", method: http.MethodPost, path: "/metrics",
			contentType: "application/json", body: "{}",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: "GET"},

		{name: "simulate wrong media type", method: http.MethodPost, path: "/v1/simulate",
			contentType: "text/plain", body: `{"design":"srl","suite":"WEB"}`,
			status: http.StatusUnsupportedMediaType, code: "unsupported_media_type"},
		{name: "sweep form-encoded body", method: http.MethodPost, path: "/v1/sweep",
			contentType: "application/x-www-form-urlencoded", body: "experiment=fig6",
			status: http.StatusUnsupportedMediaType, code: "unsupported_media_type"},
		{name: "jobs wrong media type", method: http.MethodPost, path: "/v1/jobs",
			contentType: "text/html", body: "{}",
			status: http.StatusUnsupportedMediaType, code: "unsupported_media_type"},

		{name: "simulate malformed json", method: http.MethodPost, path: "/v1/simulate",
			contentType: "application/json", body: "{not json",
			status: http.StatusBadRequest, code: "bad_request"},
		{name: "simulate unknown field", method: http.MethodPost, path: "/v1/simulate",
			contentType: "application/json", body: `{"design":"srl","suite":"WEB","typo_field":1}`,
			status: http.StatusBadRequest, code: "bad_request"},
		{name: "simulate unknown design", method: http.MethodPost, path: "/v1/simulate",
			contentType: "application/json", body: `{"design":"nonesuch","suite":"WEB"}`,
			status: http.StatusBadRequest, code: "bad_request"},
		{name: "sweep unknown experiment", method: http.MethodPost, path: "/v1/sweep",
			contentType: "application/json", body: `{"experiment":"fig999"}`,
			status: http.StatusBadRequest, code: "bad_request"},
		// A job names one point; a list of indexes is an unknown field.
		{name: "jobs empty indexes", method: http.MethodPost, path: "/v1/jobs",
			contentType: "application/json", body: `{"experiment":"fig6","indexes":[]}`,
			status: http.StatusBadRequest, code: "bad_request"},
		{name: "jobs no index", method: http.MethodPost, path: "/v1/jobs",
			contentType: "application/json", body: `{"experiment":"fig6"}`,
			status: http.StatusBadRequest, code: "bad_request"},
		{name: "jobs index out of range", method: http.MethodPost, path: "/v1/jobs",
			contentType: "application/json", body: `{"experiment":"fig6","index":99999}`,
			status: http.StatusBadRequest, code: "bad_request"},
		{name: "jobs negative index", method: http.MethodPost, path: "/v1/jobs",
			contentType: "application/json", body: `{"experiment":"fig6","index":-1}`,
			status: http.StatusBadRequest, code: "bad_request"},
		{name: "results bad fingerprint", method: http.MethodGet, path: "/v1/results/zzz",
			status: http.StatusServiceUnavailable, code: "unavailable"}, // no store attached

		{name: "unknown path", method: http.MethodGet, path: "/v1/nonesuch",
			status: http.StatusNotFound, code: "not_found"},
		{name: "root path", method: http.MethodGet, path: "/",
			status: http.StatusNotFound, code: "not_found"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error Content-Type %q: %s", ct, body)
			}
			code, _, _ := decodeEnvelope(t, body)
			if code != tc.code {
				t.Fatalf("code %q, want %q: %s", code, tc.code, body)
			}
			if tc.allow != "" {
				if got := resp.Header.Get("Allow"); got != tc.allow {
					t.Fatalf("Allow %q, want %q", got, tc.allow)
				}
			}
		})
	}
}

// TestErrorEnvelopeShedding pins the 429 shape: the envelope carries
// retry_after_ms and the Retry-After header agrees with it.
func TestErrorEnvelopeShedding(t *testing.T) {
	srv := serve.New(serve.Config{MaxConcurrent: 1, QueueDepth: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot with a long job, then overflow.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := post(t, ts.Client(), ts.URL+"/v1/simulate",
			`{"design":"srl","suite":"WEB","run_uops":2000000,"warmup_uops":1000}`)
		readAll(t, resp)
	}()
	waitInflight(t, ts.Client(), ts.URL, 1)

	resp := post(t, ts.Client(), ts.URL+"/v1/simulate", `{"design":"srl","suite":"MM"}`)
	body := readAll(t, resp)
	<-done
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	code, _, retryMs := decodeEnvelope(t, body)
	if code != "too_many_requests" {
		t.Fatalf("code %q", code)
	}
	if retryMs <= 0 {
		t.Fatalf("retry_after_ms %d", retryMs)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After header beside retry_after_ms")
	}
}

// TestErrorEnvelopePayloadTooLarge pins the 413 mapping for oversized
// request bodies.
func TestErrorEnvelopePayloadTooLarge(t *testing.T) {
	srv := serve.New(serve.Config{MaxBodyBytes: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := `{"design":"srl","suite":"WEB","seed":1,` + strings.Repeat(" ", 100) + `"run_uops":1}`
	resp := post(t, ts.Client(), ts.URL+"/v1/simulate", big)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if code, _, _ := decodeEnvelope(t, body); code != "payload_too_large" {
		t.Fatalf("code %q", code)
	}
}

// TestOversizedQueueRejected pins the queue-size bound at the API: a
// store queue too large to allocate answers 400 with the envelope instead
// of taking the server down.
func TestOversizedQueueRejected(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts.Client(), ts.URL+"/v1/simulate", oversizedSTQBody)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if code, msg, _ := decodeEnvelope(t, body); code != "bad_request" || !strings.Contains(msg, "STQ size") {
		t.Fatalf("code %q, message %q", code, msg)
	}
}

// TestEmptyContentTypeTolerated keeps the API curl-friendly: a JSON
// endpoint accepts a body with no Content-Type at all.
func TestEmptyContentTypeTolerated(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(`{"design":"srl","suite":"WEB","run_uops":8000,"warmup_uops":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header["Content-Type"] = nil
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}
