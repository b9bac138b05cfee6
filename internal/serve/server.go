// Package serve turns the simulator into a long-lived HTTP service:
// simulation and sweep jobs are accepted over JSON, executed on the
// internal/sweep bounded worker pool with per-request deadlines, and
// answered with the same machine-readable documents the CLIs export.
//
// The server is built for a deployment where it stays up for weeks under
// bursty load:
//
//   - a bounded admission queue sheds excess load with 429 + Retry-After
//     instead of queueing unboundedly;
//   - per-request deadlines propagate through context.Context into
//     core.RunContext, so a stuck or oversized job cannot pin a worker;
//   - identical requests collapse onto the single-flight memo cache keyed
//     by core.PointFingerprint, making client retries idempotent and
//     cheap, and the cache itself is bounded (LRU + byte budget) so
//     memoization cannot become a leak;
//   - SIGTERM (via the context handed to Serve) drains gracefully: the
//     listener stops accepting, in-flight jobs finish, and a hard
//     deadline aborts whatever remains.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"srlproc/internal/cluster"
	"srlproc/internal/obs"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
)

// Config sizes the server. The zero value is usable: every field falls
// back to the default named beside it.
type Config struct {
	// MaxConcurrent bounds how many jobs execute at once (default 2).
	// Each job may itself fan out onto Workers simulation goroutines.
	MaxConcurrent int

	// QueueDepth bounds how many admitted jobs may wait for an execution
	// slot beyond the running ones (default 8). Requests beyond
	// MaxConcurrent+QueueDepth are shed with 429.
	QueueDepth int

	// Workers is the sweep worker-pool size inside one job: 0 means one
	// per CPU, 1 means serial, n caps concurrency.
	Workers int

	// DefaultTimeout applies to requests that do not set timeout_ms
	// (default 2m). MaxTimeout caps client-requested deadlines
	// (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// DrainTimeout is the graceful-drain hard deadline: after SIGTERM the
	// server finishes in-flight jobs for at most this long before
	// cancelling them (default 30s).
	DrainTimeout time.Duration

	// Cache is the memo cache jobs run against; nil means a fresh bounded
	// cache with the sweep package defaults.
	Cache *sweep.Cache

	// Store, when non-nil, is attached to the cache as its persistent
	// tier: memo misses fall through to it before simulating, completions
	// write through, and GET /v1/results/{fingerprint} + /v1/store/stats
	// are served from it. Pending writes are flushed on drain; the caller
	// retains ownership and closes the store after Serve returns.
	Store store.ResultStore

	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64

	// ClusterWorkers lists worker base URLs ("host:port" or full URLs).
	// Non-empty turns this server into a cluster coordinator: /v1/sweep
	// fans the experiment's design points out as one-point /v1/jobs
	// RPCs, routed by consistent hash of each point's fingerprint, and
	// records each answer at its point's index, so the document is the
	// one a local run produces.
	ClusterWorkers []string

	// WorkerMode marks this process as a cluster worker for /healthz and
	// /metrics role reporting. Every server answers /v1/jobs regardless;
	// the flag only documents intent.
	WorkerMode bool

	// ClusterClient overrides the coordinator's worker transport (tests
	// inject fakes); nil means an HTTP client. Ignored without
	// ClusterWorkers.
	ClusterClient cluster.JobClient
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Cache == nil {
		c.Cache = sweep.NewCache()
	}
	return c
}

// counters is the server-lifetime counter set exported by /metrics.
// Guarded by Server.mu.
type counters struct {
	Requests        uint64 `json:"requests_total"`
	Shed            uint64 `json:"shed_total"`
	RefusedDraining uint64 `json:"refused_draining_total"`
	Completed       uint64 `json:"completed_total"`
	Failed          uint64 `json:"failed_total"`
	Timeouts        uint64 `json:"timeout_total"`
	BadRequests     uint64 `json:"bad_request_total"`
	SSEStreams      uint64 `json:"sse_streams_total"`
}

// Server is the simulation service. Create with New, expose with Handler
// (tests) or run with Serve (production, including graceful drain).
type Server struct {
	cfg   Config
	cache *sweep.Cache
	start time.Time

	// Admission: slots bounds admitted jobs (running + queued); run
	// bounds the ones actually executing.
	slots chan struct{}
	run   chan struct{}

	draining atomic.Bool
	// hardCtx cancels every in-flight job when the drain hard deadline
	// expires.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// avgJobNs is an EWMA of job wall time, feeding Retry-After.
	avgJobNs atomic.Int64

	mu   sync.Mutex
	cnt  counters
	agg  obs.MetricSet // per-run metric sets merged over the server's life
	jobs sync.WaitGroup

	// cluster is non-nil on coordinators (Config.ClusterWorkers set).
	cluster *clusterNode

	// planPoints is the point list the last /v1/jobs request enumerated
	// and planKey what shaped it (jobPoints), both guarded by planMu.
	planMu     sync.Mutex
	planKey    jobPlanKey
	planPoints []sweep.Point
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Store != nil {
		cfg.Cache.AttachStore(cfg.Store)
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      cfg.Cache,
		start:      time.Now(),
		slots:      make(chan struct{}, cfg.MaxConcurrent+cfg.QueueDepth),
		run:        make(chan struct{}, cfg.MaxConcurrent),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
	}
	if len(cfg.ClusterWorkers) > 0 {
		s.cluster = newClusterNode(cfg.ClusterWorkers, cfg.ClusterClient)
	}
	return s
}

// role reports this server's cluster role for /healthz and /metrics.
func (s *Server) role() string {
	switch {
	case s.cluster != nil:
		return "coordinator"
	case s.cfg.WorkerMode:
		return "worker"
	}
	return "standalone"
}

// Cache returns the memo cache the server runs jobs against.
func (s *Server) Cache() *sweep.Cache { return s.cache }

// Handler returns the server's routed HTTP handler. Every route goes
// through the endpoint wrapper, so wrong methods (405 + Allow), wrong
// request media types (415) and unknown paths (404) all answer with the
// same JSON error envelope the handlers use.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/simulate", s.endpoint(http.MethodPost, true, s.handleSimulate))
	mux.HandleFunc("/v1/sweep", s.endpoint(http.MethodPost, true, s.handleSweep))
	mux.HandleFunc("/v1/jobs", s.endpoint(http.MethodPost, true, s.handleJobs))
	mux.HandleFunc("/v1/experiments", s.endpoint(http.MethodGet, false, s.handleExperiments))
	mux.HandleFunc("/v1/results/{fingerprint}", s.endpoint(http.MethodGet, false, s.handleResults))
	mux.HandleFunc("/v1/store/stats", s.endpoint(http.MethodGet, false, s.handleStoreStats))
	mux.HandleFunc("/healthz", s.endpoint(http.MethodGet, false, s.handleHealthz))
	mux.HandleFunc("/metrics", s.endpoint(http.MethodGet, false, s.handleMetrics))
	mux.HandleFunc("/", s.handleNotFound)
	return mux
}

// Serve accepts connections on ln until ctx is cancelled (SIGTERM in
// production), then drains: the listener closes, in-flight jobs run to
// completion, and after Config.DrainTimeout whatever remains is cancelled
// and the connections are closed. A clean drain returns nil; hitting the
// hard deadline returns an error so operators can tell the difference.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	return s.drain(hs)
}

// drain performs the graceful-shutdown sequence described on Serve.
// Either way it ends, pending store write-throughs are flushed so every
// completed job's result is durable before the process exits.
func (s *Server) drain(hs *http.Server) error {
	s.draining.Store(true)
	defer s.cache.FlushStore()
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx) // stop accepting, wait for in-flight handlers
	if err == nil {
		return nil
	}
	// Hard deadline: cancel every job context, then close connections.
	s.hardCancel()
	s.jobs.Wait()
	hs.Close()
	return fmt.Errorf("serve: drain hard deadline exceeded: %w", err)
}

// Draining reports whether the server has begun its graceful drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit reserves an admission slot, or writes the load-shed/draining
// response and returns false. On success the caller must call the
// returned release func exactly once, after the job finishes.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	if s.draining.Load() {
		s.bump(func(c *counters) { c.RefusedDraining++ })
		s.writeAPIError(w, cluster.Errorf(http.StatusServiceUnavailable, cluster.CodeDraining, "server is draining"))
		return nil, false
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.bump(func(c *counters) { c.Shed++ })
		e := cluster.Errorf(http.StatusTooManyRequests, cluster.CodeTooManyRequests, "job queue full")
		e.RetryAfterMs = int64(s.retryAfterSeconds()) * 1000
		s.writeAPIError(w, e)
		return nil, false
	}
	s.jobs.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.slots
			s.jobs.Done()
		})
	}, true
}

// acquireRun blocks until an execution slot frees up, the job context
// dies, or the drain hard deadline fires. It returns a release func on
// success.
func (s *Server) acquireRun(ctx context.Context) (release func(), err error) {
	select {
	case s.run <- struct{}{}:
		return func() { <-s.run }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.hardCtx.Done():
		return nil, errors.New("server is draining")
	}
}

// retryAfterSeconds estimates how long a shed client should back off:
// the EWMA job duration scaled by current occupancy over the execution
// slots, clamped to [1, 60].
func (s *Server) retryAfterSeconds() int {
	avg := time.Duration(s.avgJobNs.Load())
	if avg <= 0 {
		return 1
	}
	occupied := len(s.slots)
	secs := int(math.Ceil(avg.Seconds() * float64(occupied) / float64(s.cfg.MaxConcurrent)))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// observeJob folds one finished job into the Retry-After EWMA.
func (s *Server) observeJob(wall time.Duration) {
	const alpha = 4 // EWMA weight 1/4 on the newest sample
	for {
		old := s.avgJobNs.Load()
		var next int64
		if old == 0 {
			next = int64(wall)
		} else {
			next = old + (int64(wall)-old)/alpha
		}
		if s.avgJobNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// bump applies f to the counter set under the server lock.
func (s *Server) bump(f func(*counters)) {
	s.mu.Lock()
	f(&s.cnt)
	s.mu.Unlock()
}

// mergeMetrics folds one run's typed metric set into the service
// aggregate exported by /metrics.
func (s *Server) mergeMetrics(m *obs.MetricSet) {
	s.mu.Lock()
	s.agg.Merge(m)
	s.mu.Unlock()
}

// jobTimeout resolves a request's timeout_ms against the server bounds.
func (s *Server) jobTimeout(timeoutMs int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// jobContext derives the context one job runs under: the request context
// bounded by the resolved timeout, and cancelled early if the drain hard
// deadline fires. The returned stop func must be deferred.
func (s *Server) jobContext(r *http.Request, timeoutMs int64) (context.Context, func()) {
	ctx, cancel := context.WithTimeout(r.Context(), s.jobTimeout(timeoutMs))
	unhook := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() {
		unhook()
		cancel()
	}
}

// statusClientClosedRequest is nginx's convention for "client went away";
// nothing can read the response, but logs and counters see the intent.
const statusClientClosedRequest = 499

// finishJob classifies a completed job into counters and, on error,
// writes the error response. It returns true when the job succeeded.
func (s *Server) finishJob(w http.ResponseWriter, err error) bool {
	if err == nil {
		s.bump(func(c *counters) { c.Completed++ })
		return true
	}
	status := errStatus(err)
	s.bump(func(c *counters) {
		c.Failed++
		if status == http.StatusGatewayTimeout {
			c.Timeouts++
		}
	})
	s.writeAPIError(w, cluster.Errorf(status, errCode(err), "%v", err))
	return false
}

// writeJSON emits doc (already-marshaled JSON) with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(doc, '\n'))
}

// healthDoc is the /healthz response body. Role drives cluster
// membership: coordinators probe worker /healthz endpoints and only
// dispatch to workers answering 200, so a draining worker (503) leaves
// the live set before its listener goes away.
type healthDoc struct {
	Status   string `json:"status"`
	Role     string `json:"role"`
	InFlight int    `json:"inflight"`
	Queued   int    `json:"queued"`
	UptimeMs int64  `json:"uptime_ms"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	running := len(s.run)
	queued := len(s.slots) - running
	if queued < 0 {
		queued = 0
	}
	doc := healthDoc{
		Status:   "ok",
		Role:     s.role(),
		InFlight: running,
		Queued:   queued,
		UptimeMs: time.Since(s.start).Milliseconds(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		doc.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	b, _ := json.Marshal(doc)
	writeJSON(w, status, b)
}

// metricsDoc is the /metrics response body: server-lifetime counters,
// the memo-cache snapshot, the persistent-store snapshot (when a store
// is attached), and the aggregated per-run typed metrics.
type metricsDoc struct {
	Server struct {
		counters
		UptimeMs int64 `json:"uptime_ms"`
		InFlight int   `json:"inflight"`
		Queued   int   `json:"queued"`
	} `json:"server"`
	Cache      sweep.Stats       `json:"cache"`
	Store      *store.Stats      `json:"store,omitempty"`
	Cluster    *clusterMetrics   `json:"cluster,omitempty"`
	SimMetrics map[string]uint64 `json:"sim_metrics"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var doc metricsDoc
	running := len(s.run)
	queued := len(s.slots) - running
	if queued < 0 {
		queued = 0
	}
	s.mu.Lock()
	doc.Server.counters = s.cnt
	doc.SimMetrics = s.agg.Snapshot()
	s.mu.Unlock()
	doc.Server.UptimeMs = time.Since(s.start).Milliseconds()
	doc.Server.InFlight = running
	doc.Server.Queued = queued
	doc.Cache = s.cache.Stats()
	if st, ok := s.cache.StoreStats(); ok {
		doc.Store = &st
	}
	doc.Cluster = s.clusterMetricsSnapshot()
	b, err := json.Marshal(doc)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, b)
}
