package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// testPoints builds n fast, distinct design points.
func testPoints(n int, seed uint64) []sweep.Point {
	pts := make([]sweep.Point, n)
	for i := range pts {
		cfg := core.DefaultConfig(core.DesignSRL)
		cfg.WarmupUops = 500
		cfg.RunUops = 2_000
		cfg.Seed = seed + uint64(i)
		pts[i] = mkPoint(fmt.Sprintf("d%d", i), cfg)
	}
	return pts
}

// mkPoint builds one PROD-suite sweep point.
func mkPoint(label string, cfg core.Config) sweep.Point {
	return sweep.Point{Label: label, Cfg: cfg, Suite: trace.PROD}
}

// fakeWorker is one simulated srlserved worker: it really simulates the
// requested point (through its own private cache, like a real node) and
// can be configured to shed load or die.
type fakeWorker struct {
	mu    sync.Mutex
	cache *sweep.Cache
	calls int
	busy  int // answer this many leading calls with 429
	dieAt int // fail RPCs from this call count on (0 = never)
	slow  time.Duration
	hold  chan struct{} // when set, every call waits for it to close
	jobs  []int         // the point index of every call, in call order
}

// fakeClient routes jobs to fakeWorkers against a canonical point list.
type fakeClient struct {
	points  []sweep.Point
	workers map[string]*fakeWorker
}

func newFakeClient(points []sweep.Point, names ...string) *fakeClient {
	c := &fakeClient{points: points, workers: make(map[string]*fakeWorker)}
	for _, n := range names {
		c.workers[n] = &fakeWorker{cache: sweep.NewCache()}
	}
	return c
}

func (c *fakeClient) RunJob(ctx context.Context, worker string, req *JobRequest) (*JobPoint, error) {
	fw, ok := c.workers[worker]
	if !ok {
		return nil, fmt.Errorf("no route to %s", worker)
	}
	fw.mu.Lock()
	fw.calls++
	call := fw.calls
	idx := *req.Index
	fw.jobs = append(fw.jobs, idx)
	busy := call <= fw.busy
	dead := fw.dieAt > 0 && call >= fw.dieAt
	slow, hold := fw.slow, fw.hold
	fw.mu.Unlock()

	if dead {
		return nil, errors.New("connection refused")
	}
	if busy {
		return nil, &APIError{Status: 429, Code: CodeTooManyRequests, Message: "job queue full", RetryAfterMs: 1}
	}
	if hold != nil {
		select {
		case <-hold:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if slow > 0 {
		select {
		case <-time.After(slow):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p := c.points[idx]
	jp := &JobPoint{Index: idx, Fingerprint: fmt.Sprintf("%016x", core.PointFingerprint(p.Cfg, p.Suite))}
	rep, err := sweep.Run(ctx, []sweep.Point{p}, sweep.Options{Workers: 1, Cache: fw.cache})
	if err != nil {
		jp.Error = err.Error()
		return jp, nil
	}
	jp.CacheHit = rep.Points[0].CacheHit
	if jp.Result, err = store.Encode(rep.Points[0].Results); err != nil {
		jp.Error = err.Error()
	}
	return jp, nil
}

// calls returns how many jobs the client has sent to every worker.
func (c *fakeClient) calls() int {
	n := 0
	for _, fw := range c.workers {
		fw.mu.Lock()
		n += fw.calls
		fw.mu.Unlock()
	}
	return n
}

// localGolden runs the points locally for comparison.
func localGolden(t *testing.T, points []sweep.Point) *sweep.Report {
	t.Helper()
	rep, err := sweep.Run(context.Background(), points, sweep.Options{Cache: sweep.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertSameResults requires the dispatched report to carry byte-identical
// per-point documents in the same canonical order as the local run.
func assertSameResults(t *testing.T, got, want *sweep.Report) {
	t.Helper()
	if len(got.Points) != len(want.Points) {
		t.Fatalf("point count %d != %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		if got.Points[i].Point.String() != want.Points[i].Point.String() {
			t.Fatalf("point %d is %s, want %s", i, got.Points[i].Point, want.Points[i].Point)
		}
		g, _ := json.Marshal(got.Points[i].Results)
		w, _ := json.Marshal(want.Points[i].Results)
		if string(g) != string(w) {
			t.Fatalf("point %d results differ:\n%s\nvs\n%s", i, g, w)
		}
	}
}

func TestDispatchMatchesLocalRun(t *testing.T) {
	points := testPoints(8, 11000)
	client := newFakeClient(points, "w1", "w2")
	rep, sum, err := Dispatch(context.Background(), client, []string{"w1", "w2"}, JobRequest{Experiment: "test"}, points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil || rep.Failed != 0 {
		t.Fatalf("dispatched report failed: %v", rep.Err)
	}
	assertSameResults(t, rep, localGolden(t, points))
	if rep.Simulated != len(points) {
		t.Fatalf("simulated = %d, want %d", rep.Simulated, len(points))
	}
	total := 0
	for _, w := range sum.Workers {
		total += w.Points
		if w.Failed {
			t.Fatalf("worker %s marked failed: %+v", w.Worker, w)
		}
	}
	if total != len(points) {
		t.Fatalf("summary points %d != %d", total, len(points))
	}
	// Both workers own shards on the ring, so with ample points both
	// should have done work.
	for _, w := range sum.Workers {
		if w.Points == 0 {
			t.Logf("note: worker %s processed 0 points (ring skew)", w.Worker)
		}
	}
}

// TestDispatchRoutesByRingOwner: each worker that owns points on the ring
// is sent one of its own points before any thief can empty its queue. The
// workers hold every job until all four in-flight slots have claimed one,
// so no slot finishes early and steals; a slot steals only from a queue
// other than its own, and only once its own is empty.
func TestDispatchRoutesByRingOwner(t *testing.T) {
	points := testPoints(6, 12180) // w1 owns four of these, w2 two
	client := newFakeClient(points, "w1", "w2")
	hold := make(chan struct{})
	client.workers["w1"].hold = hold
	client.workers["w2"].hold = hold
	const slots = 2
	type outcome struct {
		sum *Summary
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, sum, err := Dispatch(context.Background(), client, []string{"w1", "w2"}, JobRequest{}, points, Options{InFlight: slots})
		done <- outcome{sum, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); client.calls() < 2*slots; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d slots claimed a point", client.calls(), 2*slots)
		}
	}
	close(hold)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	ring := NewRing([]string{"w1", "w2"})
	owner := make([]string, len(points))
	owned := map[string]int{}
	for i, p := range points {
		owner[i], _ = ring.Owner(core.PointFingerprint(p.Cfg, p.Suite))
		owned[owner[i]]++
	}
	for name, fw := range client.workers {
		if owned[name] == 0 {
			t.Fatalf("%s owns none of the points; the test needs both workers to own some", name)
		}
		own := 0
		for _, idx := range fw.jobs {
			if owner[idx] == name {
				own++
			}
		}
		if own == 0 {
			t.Fatalf("%s owns %d points but ran none of them: %v", name, owned[name], fw.jobs)
		}
	}
	if out.sum.Redispatched != 0 {
		t.Fatalf("healthy sweep re-dispatched %d points", out.sum.Redispatched)
	}
}

func TestDispatchWorkerDeathRedispatches(t *testing.T) {
	points := testPoints(10, 13000)
	client := newFakeClient(points, "w1", "w2")
	client.workers["w2"].dieAt = 2 // first call succeeds, then the worker vanishes
	var downMu sync.Mutex
	var down []string
	rep, sum, err := Dispatch(context.Background(), client, []string{"w1", "w2"}, JobRequest{}, points, Options{
		OnWorkerDown: func(w string, err error) {
			downMu.Lock()
			down = append(down, w)
			downMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil || rep.Failed != 0 {
		t.Fatalf("report failed despite redispatch: %v", rep.Err)
	}
	assertSameResults(t, rep, localGolden(t, points))
	if len(down) == 0 || down[0] != "w2" {
		t.Fatalf("OnWorkerDown not notified: %v", down)
	}
	var w2 *WorkerSummary
	for i := range sum.Workers {
		if sum.Workers[i].Worker == "w2" {
			w2 = &sum.Workers[i]
		}
	}
	if w2 == nil || !w2.Failed {
		t.Fatalf("w2 not marked failed: %+v", sum.Workers)
	}
	if sum.Redispatched == 0 {
		t.Fatal("no points re-dispatched")
	}
}

func TestDispatchAllWorkersDead(t *testing.T) {
	points := testPoints(4, 14000)
	client := newFakeClient(points, "w1", "w2")
	client.workers["w1"].dieAt = 1
	client.workers["w2"].dieAt = 1
	_, _, err := Dispatch(context.Background(), client, []string{"w1", "w2"}, JobRequest{}, points, Options{})
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("want no-live-workers error, got %v", err)
	}
	if _, _, err := Dispatch(context.Background(), client, nil, JobRequest{}, points, Options{}); err == nil {
		t.Fatal("empty worker list accepted")
	}
}

func TestDispatchRetriesBusyWorker(t *testing.T) {
	points := testPoints(3, 15000)
	client := newFakeClient(points, "w1")
	client.workers["w1"].busy = 2 // shed the first two calls with 429
	rep, sum, err := Dispatch(context.Background(), client, []string{"w1"}, JobRequest{}, points, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("429s escalated to failures: %+v", rep)
	}
	if sum.Workers[0].Failed {
		t.Fatal("busy worker marked failed")
	}
}

func TestDispatchBusyBeyondRetryBudgetFails(t *testing.T) {
	points := testPoints(2, 15500)
	client := newFakeClient(points, "w1")
	client.workers["w1"].busy = 1 << 30 // never stops shedding
	_, _, err := Dispatch(context.Background(), client, []string{"w1"}, JobRequest{}, points, Options{RetryBackoff: time.Millisecond, MaxBusyRetries: 2})
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("want terminal failure, got %v", err)
	}
}

func TestDispatchProgressMonotonic(t *testing.T) {
	points := testPoints(6, 16000)
	client := newFakeClient(points, "w1", "w2")
	var mu sync.Mutex
	var dones []int
	rep, _, err := Dispatch(context.Background(), client, []string{"w1", "w2"}, JobRequest{}, points, Options{
		Progress: func(p sweep.Progress) {
			mu.Lock()
			dones = append(dones, p.Done)
			mu.Unlock()
			if p.Total != len(points) {
				t.Errorf("progress total %d", p.Total)
			}
		},
	})
	if err != nil || rep.Failed != 0 {
		t.Fatalf("dispatch: %v %v", err, rep.Err)
	}
	if len(dones) != len(points) {
		t.Fatalf("%d progress events for %d points", len(dones), len(points))
	}
	seen := map[int]bool{}
	for _, d := range dones {
		if d < 1 || d > len(points) || seen[d] {
			t.Fatalf("bad done sequence: %v", dones)
		}
		seen[d] = true
	}
}

func TestDispatchContextCancel(t *testing.T) {
	points := testPoints(4, 17000)
	client := newFakeClient(points, "w1")
	client.workers["w1"].slow = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := Dispatch(ctx, client, []string{"w1"}, JobRequest{}, points, Options{})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestDispatchPerPointErrorIsNotWorkerFailure: a point's simulation error,
// or an answer for a point other than the one asked for (version skew),
// fails that point alone; the worker stays up.
func TestDispatchPerPointErrorIsNotWorkerFailure(t *testing.T) {
	points := testPoints(3, 18000)
	for _, fault := range []func(jp *JobPoint){
		func(jp *JobPoint) { *jp = JobPoint{Index: jp.Index, Error: "simulated point fault"} },
		func(jp *JobPoint) { jp.Fingerprint = "0123456789abcdef" },
		func(jp *JobPoint) { jp.Index = 0 },
	} {
		client := &errClient{inner: newFakeClient(points, "w1"), failIdx: 1, fault: fault}
		rep, sum, err := Dispatch(context.Background(), client, []string{"w1"}, JobRequest{}, points, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 1 || rep.Points[1].Err == nil {
			t.Fatalf("point failure not recorded: %+v", rep)
		}
		if rep.Points[0].Err != nil || rep.Points[2].Err != nil {
			t.Fatal("healthy points failed")
		}
		if sum.Workers[0].Failed {
			t.Fatal("a point's failure took the worker down")
		}
	}
}

// errClient wraps a fakeClient, applying fault to one point's answer.
type errClient struct {
	inner   *fakeClient
	failIdx int
	fault   func(jp *JobPoint)
}

func (c *errClient) RunJob(ctx context.Context, worker string, req *JobRequest) (*JobPoint, error) {
	jp, err := c.inner.RunJob(ctx, worker, req)
	if err == nil && jp.Index == c.failIdx {
		c.fault(jp)
	}
	return jp, err
}
