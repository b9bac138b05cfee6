package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"srlproc/internal/bench"
	"srlproc/internal/cluster"
	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// SimulateRequest is the POST /v1/simulate body: one design point. The
// zero values fall back to the Table 1 defaults of the chosen design.
type SimulateRequest struct {
	Design string `json:"design"` // baseline|large|hier|srl|filtered or canonical names
	Suite  string `json:"suite"`  // SFP2K|SINT2K|WEB|MM|PROD|SERVER|WS

	RunUops    uint64 `json:"run_uops,omitempty"`
	WarmupUops uint64 `json:"warmup_uops,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	STQSize    int    `json:"stq_size,omitempty"` // large/filtered designs

	NoLCF        bool `json:"no_lcf,omitempty"`
	NoIndexedFwd bool `json:"no_indexed_fwd,omitempty"`
	NoFC         bool `json:"no_fc,omitempty"`

	// TimeoutMs bounds this job (capped by the server's MaxTimeout);
	// zero means the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// NoCache forces a fresh simulation, bypassing the memo cache.
	NoCache bool `json:"no_cache,omitempty"`
}

// ParseDesign resolves a design name as every front end does
// (core.ParseDesign).
func ParseDesign(name string) (core.StoreDesign, error) {
	return core.ParseDesign(name)
}

// config builds the core.Config for the request, mirroring cmd/srlsim's
// flag handling so a curl of the service and a CLI run of the same point
// produce byte-identical Results JSON.
func (req *SimulateRequest) config() (core.Config, trace.Suite, error) {
	d, err := core.ParseDesign(req.Design)
	if err != nil {
		return core.Config{}, 0, err
	}
	su, err := trace.ParseSuite(req.Suite)
	if err != nil {
		return core.Config{}, 0, err
	}
	cfg := core.DefaultConfig(d)
	if req.RunUops > 0 {
		cfg.RunUops = req.RunUops
	}
	if req.WarmupUops > 0 {
		cfg.WarmupUops = req.WarmupUops
	}
	if req.Seed > 0 {
		cfg.Seed = req.Seed
	}
	if d == core.DesignLargeSTQ || d == core.DesignFilteredSTQ {
		cfg.STQSize = 1024
		if req.STQSize > 0 {
			cfg.STQSize = req.STQSize
		}
	}
	if req.NoLCF {
		cfg.UseLCF = false
		cfg.UseIndexedFwd = false
	}
	if req.NoIndexedFwd {
		cfg.UseIndexedFwd = false
	}
	if req.NoFC {
		cfg.UseFC = false
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, 0, err
	}
	return cfg, su, nil
}

// decodeBody parses a bounded JSON request body into dst, rejecting
// unknown fields so client typos surface as 400s rather than silently
// running the wrong experiment.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.bump(func(c *counters) { c.BadRequests++ })
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeAPIError(w, cluster.Errorf(http.StatusRequestEntityTooLarge, cluster.CodePayloadTooLarge,
				"request body exceeds %d bytes", mbe.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleSimulate runs one design point and answers with the exact
// core.Results JSON document. Identical retried requests collapse onto
// the memo cache: the X-Srlproc-Cache header reports hit or miss, and
// X-Srlproc-Point carries the core.PointFingerprint idempotency key.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.bump(func(c *counters) { c.Requests++ })
	var req SimulateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	cfg, su, err := req.config()
	if err != nil {
		s.bump(func(c *counters) { c.BadRequests++ })
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p := sweep.Point{Label: "simulate", Cfg: cfg, Suite: su}
	s.runPoint(w, r, p, req.TimeoutMs, req.NoCache, func(pr *sweep.PointResult, err error) {
		if !s.finishJob(w, err) {
			return
		}
		// MarshalJSON's document is already compact and HTML-escaped, so
		// calling it directly saves json.Marshal's second pass over it.
		doc, err := pr.Results.MarshalJSON()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("X-Srlproc-Point", fmt.Sprintf("%016x", core.PointFingerprint(cfg, su)))
		if pr.CacheHit {
			w.Header().Set("X-Srlproc-Cache", "hit")
		} else {
			w.Header().Set("X-Srlproc-Cache", "miss")
		}
		writeJSON(w, http.StatusOK, doc)
	})
}

// runPoint runs one design point as a job of its own, the path
// /v1/simulate and /v1/jobs share: an admission slot, the job's context
// and a run slot, then a one-point sweep. A point the memo cache did not
// answer folds its wall time into the Retry-After estimate, and a point
// that succeeded merges its metrics into /metrics. A job that could not
// run, or whose point failed because its context died, ends with the
// error response written. Otherwise answer writes the response, while the
// job still holds its admission slot; err is the sweep's error, set when
// the point failed on its own.
func (s *Server) runPoint(w http.ResponseWriter, r *http.Request, p sweep.Point, timeoutMs int64, noCache bool,
	answer func(pr *sweep.PointResult, err error)) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, stop := s.jobContext(r, timeoutMs)
	defer stop()
	runRelease, err := s.acquireRun(ctx)
	if err != nil {
		s.finishJob(w, err)
		return
	}

	start := time.Now()
	rep, err := sweep.Run(ctx, []sweep.Point{p}, sweep.Options{Workers: 1, Cache: s.cache, NoCache: noCache})
	runRelease()
	pr := &rep.Points[0]
	if !pr.CacheHit {
		// Retry-After estimates how long simulations hold the run slots;
		// a memo hit's microseconds would drag it toward its floor.
		s.observeJob(time.Since(start))
	}
	if err != nil && ctx.Err() != nil {
		s.finishJob(w, err)
		return
	}
	if err == nil {
		s.mergeMetrics(&pr.Results.Metrics)
	}
	answer(pr, err)
}

// SweepRequest is the POST /v1/sweep body: one named experiment of the
// paper's evaluation (a Figure 2/6-style batch, Table 3, ...).
type SweepRequest struct {
	// Experiment names the batch by a canonical name or alias that GET
	// /v1/experiments lists; names resolve through bench.ParseExperimentID.
	Experiment string `json:"experiment"`

	// Quick runs at reduced scale (bench.QuickOptions).
	Quick bool `json:"quick,omitempty"`

	RunUops    uint64 `json:"run_uops,omitempty"`
	WarmupUops uint64 `json:"warmup_uops,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`

	// Workers overrides the per-job sweep pool size.
	Workers int `json:"workers,omitempty"`

	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	NoCache   bool  `json:"no_cache,omitempty"`

	// Stream switches the response to Server-Sent Events: one "progress"
	// event per completed point, then a final "result" (or "error")
	// event. Also triggered by "Accept: text/event-stream".
	Stream bool `json:"stream,omitempty"`
}

// experimentRunner runs one experiment, locally or across the cluster.
type experimentRunner func(ctx context.Context, o bench.Options) (bench.Result, error)

// Experiments lists the batch names /v1/sweep accepts, in the
// evaluation's presentation order.
func Experiments() []string {
	ids := bench.AllExperiments()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// experimentDoc is one experiment's entry in GET /v1/experiments.
type experimentDoc struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Description string   `json:"description"`
}

// experimentsDoc is the GET /v1/experiments response body: the sweepable
// experiments with their accepted aliases, plus a hint per SweepRequest
// parameter so the API is discoverable without reading source.
type experimentsDoc struct {
	Experiments []experimentDoc   `json:"experiments"`
	Parameters  map[string]string `json:"parameters"`
}

// handleExperiments serves the experiment catalog /v1/sweep draws from.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	s.bump(func(c *counters) { c.Requests++ })
	ids := bench.AllExperiments()
	doc := experimentsDoc{
		Experiments: make([]experimentDoc, 0, len(ids)),
		Parameters: map[string]string{
			"experiment":  "required: canonical name or alias from this catalog",
			"quick":       "bool: run at reduced scale",
			"run_uops":    "uint: measured uops per point (0 = experiment default)",
			"warmup_uops": "uint: warmup uops per point (0 = experiment default)",
			"seed":        "uint: base RNG seed (0 = experiment default)",
			"workers":     "int: per-job sweep pool size (0 = server default)",
			"timeout_ms":  "int: job deadline, capped by the server's -max-timeout",
			"no_cache":    "bool: bypass the memo cache",
			"stream":      "bool: stream progress as Server-Sent Events",
		},
	}
	for _, id := range ids {
		doc.Experiments = append(doc.Experiments, experimentDoc{
			Name:        id.String(),
			Aliases:     id.Aliases(),
			Description: id.Description(),
		})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, b)
}

// options builds the bench.Options for the request against the server's
// cache and worker-pool configuration.
func (req *SweepRequest) options(s *Server) bench.Options {
	o := bench.DefaultOptions()
	if req.Quick {
		o = bench.QuickOptions()
	}
	if req.RunUops > 0 {
		o.RunUops = req.RunUops
	}
	if req.WarmupUops > 0 {
		o.WarmupUops = req.WarmupUops
	}
	if req.Seed > 0 {
		o.Seed = req.Seed
	}
	o.Workers = s.cfg.Workers
	if req.Workers != 0 {
		o.Workers = req.Workers
	}
	o.NoCache = req.NoCache
	o.Cache = s.cache
	return o
}

// handleSweep executes one named experiment batch and answers with its
// JSON document — the same document `experiments -json -only <name>`
// writes — or streams progress over SSE when requested. Experiment names
// resolve through bench.ParseExperimentID, so the historical short names
// and the "figure2"-style aliases are both accepted; the canonical name
// is echoed in the X-Srlproc-Experiment response header.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.bump(func(c *counters) { c.Requests++ })
	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	id, err := bench.ParseExperimentID(req.Experiment)
	if err != nil {
		s.bump(func(c *counters) { c.BadRequests++ })
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("X-Srlproc-Experiment", id.String())
	runner := func(ctx context.Context, o bench.Options) (bench.Result, error) {
		if s.cluster != nil {
			return s.runClusterSweep(ctx, id, &req, o)
		}
		return bench.RunExperiment(ctx, id, o)
	}
	stream := req.Stream || strings.Contains(r.Header.Get("Accept"), "text/event-stream")

	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()

	ctx, stop := s.jobContext(r, req.TimeoutMs)
	defer stop()
	runRelease, err := s.acquireRun(ctx)
	if err != nil {
		s.finishJob(w, err)
		return
	}

	opts := req.options(s)
	// Retry-After estimates how long simulations hold the run slots, so a
	// sweep the memo cache answered whole is not folded in.
	var simulated atomic.Bool
	opts.Progress = func(p sweep.Progress) {
		if p.Done > p.CacheHits {
			simulated.Store(true)
		}
	}
	start := time.Now()
	observe := func() {
		if simulated.Load() {
			s.observeJob(time.Since(start))
		}
	}
	if stream {
		defer runRelease()
		s.streamSweep(w, ctx, runner, opts, observe)
		return
	}

	result, err := runner(ctx, opts)
	runRelease()
	observe()
	if !s.finishJob(w, err) {
		return
	}
	doc, err := json.Marshal(result)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// sseProgress is the wire form of one progress event.
type sseProgress struct {
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	CacheHits int    `json:"cache_hits"`
	Failed    int    `json:"failed"`
	ElapsedMs int64  `json:"elapsed_ms"`
	EtaMs     int64  `json:"eta_ms"`
	Last      string `json:"last"`
}

// streamSweep runs the experiment while emitting SSE events: "progress"
// per completed point (strictly increasing done counts — late-arriving
// concurrent snapshots are dropped rather than reordered), then exactly
// one terminal "result" or "error" event. It passes every snapshot on to
// opts.Progress, and calls observe once the run returns.
func (s *Server) streamSweep(w http.ResponseWriter, ctx context.Context, runner experimentRunner, opts bench.Options, observe func()) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.finishJob(w, errors.New("streaming unsupported by this connection"))
		return
	}
	s.bump(func(c *counters) { c.SSEStreams++ })
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Workers publish snapshots concurrently; a buffered channel keeps
	// them off the simulation's critical path, dropping under backlog
	// (the monotonic filter below would discard stale ones anyway).
	progress := make(chan sweep.Progress, 128)
	inner := opts.Progress
	opts.Progress = func(p sweep.Progress) {
		inner(p)
		select {
		case progress <- p:
		default:
		}
	}

	type outcome struct {
		result bench.Result
		err    error
	}
	resc := make(chan outcome, 1)
	go func() {
		result, err := runner(ctx, opts)
		resc <- outcome{result, err}
	}()

	writeEvent := func(event string, doc []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, doc)
		fl.Flush()
	}
	lastDone := 0
	emitProgress := func(p sweep.Progress) {
		if p.Done <= lastDone {
			return
		}
		lastDone = p.Done
		doc, _ := json.Marshal(sseProgress{
			Done:      p.Done,
			Total:     p.Total,
			CacheHits: p.CacheHits,
			Failed:    p.Failed,
			ElapsedMs: p.Elapsed.Milliseconds(),
			EtaMs:     p.ETA.Milliseconds(),
			Last:      p.Last.String(),
		})
		writeEvent("progress", doc)
	}
	for {
		select {
		case p := <-progress:
			emitProgress(p)
		case out := <-resc:
			observe()
			// Flush progress the workers raced in ahead of the result.
			for {
				select {
				case p := <-progress:
					emitProgress(p)
					continue
				default:
				}
				break
			}
			if out.err != nil {
				s.bump(func(c *counters) {
					c.Failed++
					if errors.Is(out.err, context.DeadlineExceeded) {
						c.Timeouts++
					}
				})
				doc, _ := json.Marshal(map[string]string{"error": out.err.Error()})
				writeEvent("error", doc)
				return
			}
			doc, err := json.Marshal(out.result)
			if err != nil {
				doc, _ = json.Marshal(map[string]string{"error": err.Error()})
				writeEvent("error", doc)
				return
			}
			s.bump(func(c *counters) { c.Completed++ })
			writeEvent("result", doc)
			return
		}
	}
}

// handleResults serves one persisted result by point fingerprint: the
// GET /v1/results/{fingerprint} body is the exact core.Results JSON
// document the simulation answered with. Results are looked up in the
// attached persistent store under this binary's code stamp — 503 without
// a store, 404 when the point is unknown, was never persisted (an observed
// or checked run) or its file failed verification and was quarantined.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	s.bump(func(c *counters) { c.Requests++ })
	st := s.cache.Store()
	if st == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no result store attached (start with -store-dir)")
		return
	}
	raw := r.PathValue("fingerprint")
	fp, err := strconv.ParseUint(raw, 16, 64)
	if err != nil || len(raw) != 16 {
		s.bump(func(c *counters) { c.BadRequests++ })
		s.writeError(w, http.StatusBadRequest, "fingerprint %q: want 16 hex digits", raw)
		return
	}
	key := store.Key{Fingerprint: fp, Stamp: store.CodeStamp()}
	res, ok, err := st.Get(key)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, "no stored result for point %s under this build", key.FingerprintHex())
		return
	}
	doc, err := json.Marshal(res)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("X-Srlproc-Point", key.FingerprintHex())
	writeJSON(w, http.StatusOK, doc)
}

// handleStoreStats serves the persistent store's counter snapshot, or 503
// when the server runs without a store.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	s.bump(func(c *counters) { c.Requests++ })
	st, ok := s.cache.StoreStats()
	if !ok {
		s.writeError(w, http.StatusServiceUnavailable, "no result store attached (start with -store-dir)")
		return
	}
	doc, err := json.Marshal(st)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
