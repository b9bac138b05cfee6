package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// JobClient is the coordinator's transport to one worker. Production
// uses HTTPClient; dispatcher tests substitute fakes.
type JobClient interface {
	// RunJob executes req on the worker and returns its answer. A
	// non-nil error is either a transport failure or a decoded *APIError;
	// a simulation failure travels inside the answer instead.
	RunJob(ctx context.Context, worker string, req *JobRequest) (*JobPoint, error)
}

// HTTPClient speaks the /v1/jobs and /healthz endpoints of srlserved
// workers.
type HTTPClient struct {
	// Client is the underlying http.Client; nil means
	// http.DefaultClient. Job deadlines ride on the request context, so
	// the client itself needs no timeout.
	Client *http.Client
}

func (c *HTTPClient) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// BaseURL normalizes a -workers entry: "host:port" gains an http://
// scheme, trailing slashes are dropped.
func BaseURL(worker string) string {
	w := strings.TrimRight(worker, "/")
	if !strings.Contains(w, "://") {
		w = "http://" + w
	}
	return w
}

// maxErrorBody bounds how much of an error response the client reads —
// enough for any envelope, safe against a worker streaming garbage.
const maxErrorBody = 64 << 10

// RunJob POSTs req to the worker's /v1/jobs endpoint.
func (c *HTTPClient) RunJob(ctx context.Context, worker string, req *JobRequest) (*JobPoint, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal job: %w", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, BaseURL(worker)+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return nil, DecodeError(resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out JobPoint
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("cluster: decode job response from %s: %w", worker, err)
	}
	return &out, nil
}

// Probe implements the pool's health check: GET /healthz, healthy on
// 200. A draining worker answers 503 and correctly stays out of the
// live set.
func (c *HTTPClient) Probe(ctx context.Context, worker string) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, BaseURL(worker)+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s /healthz: %s", worker, resp.Status)
	}
	return nil
}
