package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"srlproc/internal/bench"
	"srlproc/internal/cluster"
	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
)

// clusterNode is the coordinator state attached to a Server when
// Config.ClusterWorkers is set: the health-checked membership pool and
// the service-lifetime dispatch counters /metrics exports.
type clusterNode struct {
	pool   *cluster.Pool
	client cluster.JobClient

	mu             sync.Mutex
	sweeps         uint64
	steals         uint64
	redispatched   uint64
	workerFailures uint64
}

func newClusterNode(workers []string, client cluster.JobClient) *clusterNode {
	if client == nil {
		client = &cluster.HTTPClient{}
	}
	var probe cluster.ProbeFunc
	if p, ok := client.(interface {
		Probe(ctx context.Context, worker string) error
	}); ok {
		probe = p.Probe
	}
	return &clusterNode{pool: cluster.NewPool(workers, probe), client: client}
}

// clusterMetrics is the /metrics "cluster" section: the node's role,
// and — on coordinators — worker health plus dispatch counters.
type clusterMetrics struct {
	Role           string                 `json:"role"`
	Workers        []cluster.MemberStatus `json:"workers,omitempty"`
	Sweeps         uint64                 `json:"sweeps_total,omitempty"`
	Steals         uint64                 `json:"steals_total,omitempty"`
	Redispatched   uint64                 `json:"redispatched_total,omitempty"`
	WorkerFailures uint64                 `json:"worker_failures_total,omitempty"`
}

// clusterMetricsSnapshot builds the /metrics cluster section, or nil for
// a standalone server (the section is omitted entirely).
func (s *Server) clusterMetricsSnapshot() *clusterMetrics {
	switch {
	case s.cluster != nil:
		c := s.cluster
		c.mu.Lock()
		defer c.mu.Unlock()
		return &clusterMetrics{
			Role:           "coordinator",
			Workers:        c.pool.Snapshot(),
			Sweeps:         c.sweeps,
			Steals:         c.steals,
			Redispatched:   c.redispatched,
			WorkerFailures: c.workerFailures,
		}
	case s.cfg.WorkerMode:
		return &clusterMetrics{Role: "worker"}
	}
	return nil
}

// runClusterSweep is the coordinator's /v1/sweep execution path: the
// experiment's canonical point list fans out as /v1/jobs RPCs over the
// live workers, and the merged report assembles into the exact
// bench.Result a local bench.RunExperiment would produce — the
// simulator's determinism plus store.Encode's round-trip proof make the
// two byte-identical.
func (s *Server) runClusterSweep(ctx context.Context, id bench.ExperimentID, req *SweepRequest, o bench.Options) (bench.Result, error) {
	points, err := bench.ExperimentPoints(id, o)
	if err != nil {
		return nil, err
	}
	c := s.cluster
	workers := c.pool.Live(ctx)
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: %w: none of the %d configured workers is healthy", cluster.ErrNoLiveWorkers, len(c.pool.Workers()))
	}
	template := cluster.JobRequest{
		Experiment: id.String(),
		Quick:      req.Quick,
		RunUops:    req.RunUops,
		WarmupUops: req.WarmupUops,
		Seed:       req.Seed,
		NoCache:    req.NoCache,
		TimeoutMs:  req.TimeoutMs,
	}
	rep, sum, err := cluster.Dispatch(ctx, c.client, workers, template, points, cluster.Options{
		Progress: o.Progress,
		OnWorkerDown: func(worker string, err error) {
			c.pool.MarkDown(worker, err)
			c.mu.Lock()
			c.workerFailures++
			c.mu.Unlock()
		},
	})
	c.mu.Lock()
	c.sweeps++
	if sum != nil {
		c.steals += uint64(sum.Steals)
		c.redispatched += uint64(sum.Redispatched)
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for i := range rep.Points {
		if pr := &rep.Points[i]; pr.Err == nil && pr.Results != nil {
			s.mergeMetrics(&pr.Results.Metrics)
		}
	}
	if rep.Err != nil {
		return nil, rep.Err
	}
	return bench.AssembleExperiment(id, o, rep)
}

// handleJobs is the worker half of the cluster protocol: POST /v1/jobs
// runs a slice of one experiment's canonical point list, named by index,
// and answers with each point's canonical Results document. The worker
// re-derives the point list from the same experiment-shaping fields the
// coordinator resolved, so nothing config-shaped travels on the wire.
//
// Per-point simulation failures are reported in-band (JobPoint.Error) —
// the coordinator records them like a local run's. Only a dead job
// context fails the RPC itself, which the coordinator treats as a
// worker-level failure and re-dispatches. Every server answers /v1/jobs,
// so any node can be drafted as a worker; jobs share the node's memo
// cache and persistent store exactly like /v1/simulate traffic.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.bump(func(c *counters) { c.Requests++ })
	var req cluster.JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	id, err := bench.ParseExperimentID(req.Experiment)
	if err != nil {
		s.bump(func(c *counters) { c.BadRequests++ })
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sr := SweepRequest{
		Quick:      req.Quick,
		RunUops:    req.RunUops,
		WarmupUops: req.WarmupUops,
		Seed:       req.Seed,
		NoCache:    req.NoCache,
	}
	o := sr.options(s)
	points, err := bench.ExperimentPoints(id, o)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if len(req.Indexes) == 0 {
		s.bump(func(c *counters) { c.BadRequests++ })
		s.writeError(w, http.StatusBadRequest, "job carries no point indexes")
		return
	}
	sub := make([]sweep.Point, 0, len(req.Indexes))
	for _, idx := range req.Indexes {
		if idx < 0 || idx >= len(points) {
			s.bump(func(c *counters) { c.BadRequests++ })
			s.writeError(w, http.StatusBadRequest,
				"point index %d out of range for %s (%d points) — coordinator/worker version skew?", idx, id, len(points))
			return
		}
		sub = append(sub, points[idx])
	}

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

	start := time.Now()
	rep, _ := sweep.Run(ctx, sub, sweep.Options{
		Workers: o.Workers,
		Cache:   s.cache,
		NoCache: req.NoCache,
	})
	runRelease()
	if rep.Simulated > 0 {
		// A job the memo cache answered whole held no run slot for long;
		// Retry-After follows simulations.
		s.observeJob(time.Since(start))
	}
	// A dead context fails the whole RPC (worker-level failure for the
	// coordinator); per-point simulation errors travel in-band below.
	if ctx.Err() != nil {
		s.finishJob(w, ctx.Err())
		return
	}

	resp := cluster.JobResponse{
		Experiment: id.String(),
		Points:     make([]cluster.JobPoint, 0, len(rep.Points)),
	}
	for i := range rep.Points {
		pr := &rep.Points[i]
		jp := cluster.JobPoint{
			Index:       req.Indexes[i],
			Fingerprint: fmt.Sprintf("%016x", core.PointFingerprint(pr.Point.Cfg, pr.Point.Suite)),
			CacheHit:    pr.CacheHit,
			WallMs:      pr.Wall.Milliseconds(),
		}
		switch {
		case pr.Err != nil:
			jp.Error = pr.Err.Error()
		default:
			doc, encErr := store.Encode(pr.Results)
			if encErr != nil {
				jp.Error = encErr.Error()
			} else {
				jp.Result = doc
				s.mergeMetrics(&pr.Results.Metrics)
			}
		}
		resp.Points = append(resp.Points, jp)
	}
	s.finishJob(w, nil)
	doc, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("X-Srlproc-Experiment", id.String())
	writeJSON(w, http.StatusOK, doc)
}
