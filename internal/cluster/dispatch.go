package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
)

// ErrNoLiveWorkers is the terminal dispatch error: every worker is gone
// (none configured, or the last one failed mid-sweep). Callers match it
// with errors.Is to answer 503 instead of 500.
var ErrNoLiveWorkers = errors.New("no live workers")

// Options tune one Dispatch call.
type Options struct {
	// InFlight is how many jobs one worker runs concurrently (default
	// 2): enough to hide RPC latency without swamping a worker's
	// admission queue.
	InFlight int

	// MaxBusyRetries bounds how often a 429 from a worker is retried on
	// the same worker before it counts as a failure (default 8). The
	// wait honours the worker's Retry-After hint, capped at 5s.
	MaxBusyRetries int

	// RetryBackoff is the wait for a 429 without a hint (default 250ms).
	RetryBackoff time.Duration

	// Progress, when non-nil, receives a cluster-wide snapshot after
	// every resolved point — the multiplexed feed behind coordinator
	// SSE streams.
	Progress sweep.ProgressFunc

	// OnWorkerDown is notified when a worker is dropped mid-sweep (its
	// jobs re-dispatch to the survivors); serve points this at
	// Pool.MarkDown so the failure outlives the sweep.
	OnWorkerDown func(worker string, err error)
}

func (o Options) withDefaults() Options {
	if o.InFlight <= 0 {
		o.InFlight = 2
	}
	if o.MaxBusyRetries <= 0 {
		o.MaxBusyRetries = 8
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 250 * time.Millisecond
	}
	return o
}

// WorkerSummary is one worker's share of a dispatched sweep.
type WorkerSummary struct {
	Worker    string `json:"worker"`
	Points    int    `json:"points"`
	CacheHits int    `json:"cache_hits"`
	Failed    bool   `json:"failed,omitempty"`
}

// Summary describes how a Dispatch call spread its work.
type Summary struct {
	Workers      []WorkerSummary `json:"workers"`
	Steals       int             `json:"steals"`
	Redispatched int             `json:"redispatched"`
}

// Dispatch executes points across workers, one point per job, and returns
// the report in canonical point order, exactly as a local sweep.Run over
// the same list would have ordered it: each answer is recorded at its
// point's index, with the same bookkeeping sweep.Run keeps.
//
// Each point is initially routed to the worker owning its fingerprint on
// the consistent-hash ring, so repeated sweeps hit the same workers'
// caches. An idle worker steals from the longest remaining queue — the
// tail end, farthest from where the owner is working. When a worker's
// RPC fails its queued and in-flight points re-dispatch to the
// survivors' ring; the simulator's determinism guarantees the retried
// points produce byte-identical results, so a mid-sweep worker loss is
// invisible in the document. Per-point simulation errors are NOT worker
// failures: they are recorded in the report like a local run's.
//
// template carries the experiment-shaping fields of every JobRequest;
// Dispatch fills Index per job. The returned error is terminal (no live
// workers left, or ctx done); per-point failures surface in Report.Err
// like sweep.Run's. The report's Workers is the dispatch's in-flight slot
// count, the cluster's pool size.
func Dispatch(ctx context.Context, client JobClient, workers []string, template JobRequest, points []sweep.Point, o Options) (*sweep.Report, *Summary, error) {
	o = o.withDefaults()
	if len(workers) == 0 {
		return nil, nil, fmt.Errorf("cluster: %w", ErrNoLiveWorkers)
	}
	d := &dispatcher{
		client:   client,
		template: template,
		fps:      make([]uint64, len(points)),
		o:        o,
		rep:      sweep.NewReport(points),
		queues:   make(map[string][]int, len(workers)),
		live:     make(map[string]bool, len(workers)),
		stats:    make(map[string]*WorkerSummary, len(workers)),
		order:    workers,
	}
	d.cond = sync.NewCond(&d.mu)
	d.remaining = len(points)
	for _, w := range workers {
		d.live[w] = true
		d.stats[w] = &WorkerSummary{Worker: w}
	}
	ring := NewRing(workers)
	for i, p := range points {
		d.fps[i] = core.PointFingerprint(p.Cfg, p.Suite)
		owner, _ := ring.Owner(d.fps[i])
		d.queues[owner] = append(d.queues[owner], i)
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		for k := 0; k < o.InFlight; k++ {
			wg.Add(1)
			go func(w string) {
				defer wg.Done()
				d.loop(ctx, w)
			}(w)
		}
	}
	wg.Wait()

	sum := d.summary()
	if d.failedErr != nil {
		return nil, sum, d.failedErr
	}
	d.rep.Workers = len(workers) * o.InFlight
	d.rep.Finish(nil)
	return d.rep, sum, nil
}

type dispatcher struct {
	client   JobClient
	template JobRequest
	fps      []uint64
	o        Options
	order    []string

	mu        sync.Mutex
	cond      *sync.Cond
	rep       *sweep.Report
	queues    map[string][]int
	live      map[string]bool
	inflight  int
	remaining int
	aborted   bool
	failedErr error

	stats                map[string]*WorkerSummary
	steals, redispatched int
}

// loop is one in-flight slot of one worker: claim a point, run it,
// record it; on RPC failure take the worker down and exit.
func (d *dispatcher) loop(ctx context.Context, w string) {
	for {
		idx, ok := d.next(w)
		if !ok {
			return
		}
		jp, err := d.runWithRetry(ctx, w, idx)
		if err != nil {
			if ctx.Err() != nil {
				d.abort(ctx.Err())
				return
			}
			d.workerFailed(w, idx, err)
			return
		}
		d.complete(w, idx, jp)
	}
}

// next claims the next point for worker w: its own queue front, else a
// steal from the tail of the longest live queue. It blocks while other
// slots are in flight (their failure may re-dispatch work this way) and
// returns false when the sweep is finished, aborted, or w is down.
func (d *dispatcher) next(w string) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.aborted || d.remaining == 0 || !d.live[w] {
			return 0, false
		}
		if q := d.queues[w]; len(q) > 0 {
			idx := q[0]
			d.queues[w] = q[1:]
			d.inflight++
			return idx, true
		}
		victim, best := "", 0
		for v, q := range d.queues {
			if v != w && d.live[v] && len(q) > best {
				victim, best = v, len(q)
			}
		}
		if best > 0 {
			q := d.queues[victim]
			idx := q[len(q)-1]
			d.queues[victim] = q[:len(q)-1]
			d.steals++
			d.inflight++
			return idx, true
		}
		if d.inflight == 0 {
			// remaining > 0 with nothing queued or running is a logic
			// error; fail loudly rather than hang every slot.
			d.abortLocked(fmt.Errorf("cluster: %d points unaccounted for", d.remaining))
			return 0, false
		}
		d.cond.Wait()
	}
}

// runWithRetry ships one point to w, retrying bounded 429 shed responses
// on the same worker (it is busy, not gone) with the server's suggested
// backoff.
func (d *dispatcher) runWithRetry(ctx context.Context, w string, idx int) (*JobPoint, error) {
	req := d.template
	req.Index = &idx
	for attempt := 0; ; attempt++ {
		jp, err := d.client.RunJob(ctx, w, &req)
		if err == nil {
			return jp, nil
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != CodeTooManyRequests || attempt >= d.o.MaxBusyRetries {
			return nil, err
		}
		wait := apiErr.RetryAfter(d.o.RetryBackoff)
		if wait > 5*time.Second {
			wait = 5 * time.Second
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// workerFailed drops w from the sweep and re-dispatches its queue plus
// the failed in-flight point across the survivors' ring.
func (d *dispatcher) workerFailed(w string, idx int, err error) {
	d.mu.Lock()
	d.inflight--
	// A worker with several in-flight slots fails once per slot; only the
	// first transition counts as the worker going down.
	firstDown := d.live[w]
	d.live[w] = false
	d.stats[w].Failed = true
	orphans := append(d.queues[w], idx)
	d.queues[w] = nil
	var survivors []string
	for v, alive := range d.live {
		if alive {
			survivors = append(survivors, v)
		}
	}
	if len(survivors) == 0 {
		d.abortLocked(fmt.Errorf("cluster: %w (last: %s: %v)", ErrNoLiveWorkers, w, err))
		d.mu.Unlock()
		if firstDown {
			d.notifyDown(w, err)
		}
		return
	}
	ring := NewRing(survivors)
	for _, i := range orphans {
		owner, _ := ring.Owner(d.fps[i])
		d.queues[owner] = append(d.queues[owner], i)
		d.redispatched++
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	if firstDown {
		d.notifyDown(w, err)
	}
}

func (d *dispatcher) notifyDown(w string, err error) {
	if d.o.OnWorkerDown != nil {
		d.o.OnWorkerDown(w, err)
	}
}

// complete records one answered job at its point's index and publishes
// the progress snapshot.
func (d *dispatcher) complete(w string, idx int, jp *JobPoint) {
	var pr sweep.PointResult
	want := fmt.Sprintf("%016x", d.fps[idx])
	switch {
	case jp.Error != "":
		pr.Err = errors.New(jp.Error)
	case jp.Index != idx || jp.Fingerprint != want:
		// The worker enumerated a different point list — a version skew
		// the determinism guarantee cannot survive.
		pr.Err = fmt.Errorf("cluster: worker %s answered point %d (fingerprint %s) for point %d (%s): version skew?", w, jp.Index, jp.Fingerprint, idx, want)
	default:
		if res, err := store.Decode(jp.Result); err != nil {
			pr.Err = fmt.Errorf("cluster: decode result from %s: %w", w, err)
		} else {
			pr.Results = res
			pr.CacheHit = jp.CacheHit
			pr.Wall = time.Duration(jp.WallMs) * time.Millisecond
		}
	}

	d.mu.Lock()
	d.inflight--
	d.remaining--
	st := d.stats[w]
	st.Points++
	if pr.CacheHit {
		st.CacheHits++
	}
	prog := d.rep.Record(idx, pr)
	d.cond.Broadcast()
	d.mu.Unlock()
	if d.o.Progress != nil {
		d.o.Progress(prog)
	}
}

func (d *dispatcher) abort(err error) {
	d.mu.Lock()
	d.abortLocked(err)
	d.mu.Unlock()
}

// abortLocked ends the sweep with a terminal error; callers hold d.mu.
func (d *dispatcher) abortLocked(err error) {
	if !d.aborted {
		d.aborted = true
		d.failedErr = err
	}
	d.cond.Broadcast()
}

// summary snapshots the per-worker accounting in configured order.
func (d *dispatcher) summary() *Summary {
	d.mu.Lock()
	defer d.mu.Unlock()
	sum := &Summary{Steals: d.steals, Redispatched: d.redispatched}
	for _, w := range d.order {
		sum.Workers = append(sum.Workers, *d.stats[w])
	}
	return sum
}
