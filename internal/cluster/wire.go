// Package cluster distributes sweep execution across srlserved worker
// processes: a consistent-hash ring assigns each design point to the
// worker whose memo cache and persistent store own that shard of the
// fingerprint keyspace, a health-checked pool tracks membership, and a
// per-sweep dispatcher ships one-point jobs, named by index, steals work
// from stragglers and re-dispatches jobs lost to failed workers. Determinism
// makes all of this safe: any worker produces byte-identical results for
// a given point, so retries and steals never change the document.
package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Error codes of the v1 error envelope. The same envelope travels on the
// public API and on the coordinator↔worker job RPC, which is why it is
// defined here rather than in internal/serve: the serve handlers write
// it and the cluster client decodes it, without an import cycle.
const (
	CodeBadRequest          = "bad_request"
	CodeNotFound            = "not_found"
	CodeMethodNotAllowed    = "method_not_allowed"
	CodeUnsupportedMedia    = "unsupported_media_type"
	CodeTooManyRequests     = "too_many_requests"
	CodeClientClosedRequest = "client_closed_request"
	CodeTimeout             = "timeout"
	CodeDraining            = "draining"
	CodeUnavailable         = "unavailable"
	CodeInternal            = "internal"
	CodePayloadTooLarge     = "payload_too_large"
)

// APIError is the one error shape every v1 endpoint answers with:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": 1000}}
//
// Status is the HTTP status it traveled with (not part of the JSON
// document). RetryAfterMs is set on load-shed responses and mirrors the
// Retry-After header.
type APIError struct {
	Status       int    `json:"-"`
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s (%d %s)", e.Message, e.Status, e.Code)
}

// envelope is the wire wrapper around APIError.
type envelope struct {
	Error *APIError `json:"error"`
}

// Errorf builds an APIError.
func Errorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// WriteError emits e as the uniform JSON error document, setting the
// Retry-After header when the error carries a backoff hint.
func WriteError(w http.ResponseWriter, e *APIError) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterMs > 0 {
		secs := (e.RetryAfterMs + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(e.Status)
	doc, _ := json.Marshal(envelope{Error: e})
	w.Write(append(doc, '\n'))
}

// DecodeError reconstructs the APIError a non-200 response carried.
// Bodies that are not the envelope (a proxy's HTML 502, a truncated
// read) degrade to a synthesized error with a code derived from the
// status, so callers always get a structured error.
func DecodeError(status int, body []byte) *APIError {
	var env envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.Status = status
		return env.Error
	}
	msg := string(body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return &APIError{Status: status, Code: CodeForStatus(status), Message: msg}
}

// CodeForStatus maps an HTTP status to the envelope code serve uses for
// it — the fallback when a response body could not be decoded.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusUnsupportedMediaType:
		return CodeUnsupportedMedia
	case http.StatusTooManyRequests:
		return CodeTooManyRequests
	case http.StatusGatewayTimeout:
		return CodeTimeout
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	}
	return CodeInternal
}

// RetryAfter returns the server-suggested backoff, or def when the error
// carries none.
func (e *APIError) RetryAfter(def time.Duration) time.Duration {
	if e.RetryAfterMs > 0 {
		return time.Duration(e.RetryAfterMs) * time.Millisecond
	}
	return def
}

// JobRequest is the POST /v1/jobs body: one point of one experiment's
// canonical point list, named by its index. The experiment-shaping fields
// mirror /v1/sweep's so a worker resolves exactly the bench.Options the
// coordinator resolved; both sides then derive the same
// bench.ExperimentPoints list, and Index names a point in it. Shipping an
// index instead of a serialized config keeps the wire format trivial and
// makes disagreement impossible: there is nothing to drift. Index is a
// pointer so a body without one is refused rather than read as point 0.
type JobRequest struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick,omitempty"`
	RunUops    uint64 `json:"run_uops,omitempty"`
	WarmupUops uint64 `json:"warmup_uops,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	NoCache    bool   `json:"no_cache,omitempty"`
	TimeoutMs  int64  `json:"timeout_ms,omitempty"`

	Index *int `json:"index"`
}

// JobPoint is the worker's answer: the requested point's outcome. Result
// is the canonical core.Results document, round-trip proven by
// store.Encode before it is shipped — the coordinator rehydrates it
// byte-identically. Index echoes the request's, and Fingerprint is the
// worker's core.PointFingerprint for the point; the coordinator checks
// both against its own enumeration.
type JobPoint struct {
	Index       int             `json:"index"`
	Fingerprint string          `json:"fingerprint"`
	CacheHit    bool            `json:"cache_hit,omitempty"`
	WallMs      int64           `json:"wall_ms,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
}
