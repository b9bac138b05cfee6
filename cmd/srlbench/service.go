package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/serve"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// serviceRound is the service workload: closed-loop clients on
// POST /v1/simulate of serve.New(...).Handler() on a loopback listener,
// backed by a DiskStore. Set-up prewarms a hot set in process, through the
// server's own cache. The mixed phase sends a fixed mix, 70% hot keys (memo
// hits) and 30% fresh keys (simulations and store writes); the restart
// phase starts a new server with an empty cache on the same store and asks
// for every distinct key once (store reads). The seed shuffles both phases.
type serviceRound struct {
	t      *tally
	o      *opts
	size   svcSize
	dir    string
	client *http.Client

	hotKeys []svcKey
	hot     []sweep.Point   // the hot keys' points, as the server builds them
	hotRes  []*core.Results // their prewarmed results
	fresh   map[svcKey]bool // read-only after set-up
	mixed   []svcKey
	restart []svcKey
	srv     [2]*liveServer    // the first server, then the restarted one
	mu      sync.Mutex        // guards cold
	cold    map[svcKey][]byte // each key's first answer
}

type svcSize struct {
	warm, run           uint64
	hotSeeds, hotRepeat int
	fresh               int
}

// clients is the closed loop's concurrency, equal to the server's default
// MaxConcurrent so that nothing is shed.
const clients = 2

// svcDesigns are the design names clients send, one per store design.
var svcDesigns = []string{"baseline", "large", "hier", "srl", "filtered"}

// svcKey is one distinct request.
type svcKey struct {
	design string
	suite  trace.Suite
	seed   uint64
}

func (k svcKey) String() string { return fmt.Sprintf("%s/%s/seed%d", k.design, k.suite, k.seed) }

func (k svcKey) body(s svcSize) []byte {
	// A struct of strings and integers always marshals.
	b, _ := json.Marshal(serve.SimulateRequest{Design: k.design, Suite: k.suite.String(),
		RunUops: s.run, WarmupUops: s.warm, Seed: k.seed})
	return b
}

// point builds the sweep point the server builds for the key's request, so
// that the prewarmed results are the server's memo hits.
func (k svcKey) point(s svcSize) (sweep.Point, error) {
	d, err := serve.ParseDesign(k.design)
	if err != nil {
		return sweep.Point{}, err
	}
	cfg := core.DefaultConfig(d)
	cfg.WarmupUops, cfg.RunUops, cfg.Seed = s.warm, s.run, k.seed
	if d == core.DesignLargeSTQ || d == core.DesignFilteredSTQ {
		cfg.STQSize = 1024
	}
	return sweep.Point{Label: "simulate", Cfg: cfg, Suite: k.suite}, nil
}

func setupService(ctx context.Context, o *opts, t *tally) (round, error) {
	// 70 hot keys (5 designs x 7 suites x 2 seeds) asked 5 times each, and
	// 150 fresh keys: 500 mixed requests. The server's memo cache holds on
	// to 1.7 MiB per result, so the key count sets the live heap.
	size := svcSize{warm: 2000, run: 10000, hotSeeds: 2, hotRepeat: 5, fresh: 150}
	if o.smoke {
		size = svcSize{warm: 100, run: 500, hotSeeds: 1, hotRepeat: 2, fresh: 20}
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "service-")
	if err != nil {
		return nil, err
	}
	r := &serviceRound{t: t, o: o, size: size, dir: dir, fresh: map[svcKey]bool{}, cold: map[svcKey][]byte{},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
	if err := r.prepare(ctx); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

// prepare builds the request sequences, starts the first server and
// prewarms its cache and store with the hot set.
func (r *serviceRound) prepare(ctx context.Context) error {
	var combos, freshKeys []svcKey
	for _, d := range svcDesigns {
		for _, s := range trace.AllSuites() {
			combos = append(combos, svcKey{design: d, suite: s})
		}
	}
	for seed := 1; seed <= r.size.hotSeeds; seed++ {
		for _, k := range combos {
			k.seed = uint64(seed)
			r.hotKeys = append(r.hotKeys, k)
		}
	}
	for i := 0; i < r.size.fresh; i++ {
		k := combos[i%len(combos)]
		k.seed = uint64(1000 + i)
		r.fresh[k] = true
		freshKeys = append(freshKeys, k)
	}
	for i := 0; i < r.size.hotRepeat; i++ {
		r.mixed = append(r.mixed, r.hotKeys...)
	}
	r.mixed = append(r.mixed, freshKeys...)
	r.restart = append(append([]svcKey(nil), r.hotKeys...), freshKeys...)
	rng := rand.New(rand.NewPCG(r.o.seed, 4))
	rng.Shuffle(len(r.mixed), func(i, j int) { r.mixed[i], r.mixed[j] = r.mixed[j], r.mixed[i] })
	rng.Shuffle(len(r.restart), func(i, j int) { r.restart[i], r.restart[j] = r.restart[j], r.restart[i] })

	var err error
	if r.srv[0], err = startServer(r.dir, r.t, r.o.wrap); err != nil {
		return err
	}
	for _, k := range r.hotKeys {
		p, err := k.point(r.size)
		if err != nil {
			return err
		}
		r.hot = append(r.hot, p)
	}
	cache := r.srv[0].cache
	rep, err := r.t.sweep(ctx, r.hot, sweep.Options{Workers: clients, Cache: cache}, int(r.t.phase.Load()), false)
	if err != nil {
		return fmt.Errorf("prewarm: %w", err)
	}
	cache.FlushStore()
	for i, pr := range rep.Points {
		doc, err := json.Marshal(pr.Results)
		if err != nil {
			return err
		}
		r.cold[r.hotKeys[i]] = append(doc, '\n') // the server answers with the document and a newline
		r.hotRes = append(r.hotRes, pr.Results)
	}
	return nil
}

func (r *serviceRound) run(ctx context.Context) error {
	t := r.t
	for i, k := range r.hotKeys {
		t.line("svc/"+k.design, k.seed, r.hotRes[i])
	}
	phase := t.phase.Load()
	defer t.phase.Store(phase)

	id := t.rec.begin("mixed", int(phase))
	t.phase.Store(int64(id))
	start := time.Now()
	r.drive(ctx, r.srv[0], r.mixed, false, id)
	mixed := time.Since(start)
	t.rec.end(id)
	if err := r.stop(ctx, r.srv[0]); err != nil {
		return err
	}
	t.update(func(l *layers) { l.mixedNs += int64(mixed); l.mixedReqs += len(r.mixed) })

	id = t.rec.begin("restart", int(phase))
	defer t.rec.end(id)
	t.phase.Store(int64(id))
	var err error
	if r.srv[1], err = startServer(r.dir, t, r.o.wrap); err != nil {
		return err
	}
	r.drive(ctx, r.srv[1], r.restart, true, id)
	if err := r.stop(ctx, r.srv[1]); err != nil {
		return err
	}
	return ctx.Err()
}

// stop reads the server's shed count from /metrics, then shuts it down.
func (r *serviceRound) stop(ctx context.Context, s *liveServer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	var doc struct {
		Server struct {
			Shed uint64 `json:"shed_total"`
		} `json:"server"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	r.t.update(func(l *layers) { l.shed += doc.Server.Shed })
	// The transport may hold a connection it dialed but never used; the
	// server would wait 5 s for its first request before shutting down.
	r.client.CloseIdleConnections()
	return s.stop()
}

// drive sends keys from closed-loop clients: each sends its next request
// when its previous one is answered.
func (r *serviceRound) drive(ctx context.Context, s *liveServer, keys []svcKey, restarted bool, parent int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				r.request(ctx, s.url, keys[i], restarted, parent)
			}
		}()
	}
	wg.Wait()
}

// request sends one key and checks the answer: a fresh key of the mixed
// phase must be a miss, anything else a hit whose body is byte-identical to
// the key's first answer.
func (r *serviceRound) request(ctx context.Context, url string, k svcKey, restarted bool, parent int) {
	t := r.t
	id := t.rec.beginLane("request", parent)
	start := time.Now()
	status, cache, doc, err := post(ctx, r.client, url+"/v1/simulate", k.body(r.size))
	d := time.Since(start)
	t.rec.end(id)
	t.attempt(1)
	if err != nil {
		t.fail("%v: %v", k, err)
		return
	}
	if status != http.StatusOK {
		t.fail("%v: HTTP %d: %.200s", k, status, doc)
		return
	}
	fresh := r.fresh[k] && !restarted
	want := "hit"
	if fresh {
		want = "miss"
	}
	if cache != want {
		t.fail("%v: X-Srlproc-Cache is %q, want %q", k, cache, want)
		return
	}
	if fresh {
		var res core.Results
		if err := json.Unmarshal(doc, &res); err != nil {
			t.fail("%v: %v", k, err)
			return
		}
		r.mu.Lock()
		r.cold[k] = doc
		r.mu.Unlock()
		t.op(d, r.size.warm+res.Uops)
		t.line("svc/"+k.design, k.seed, &res)
		t.update(func(l *layers) { l.missMs = append(l.missMs, ms(d)) })
		return
	}
	r.mu.Lock()
	cold := r.cold[k]
	r.mu.Unlock()
	if !bytes.Equal(doc, cold) {
		t.fail("%v: answer differs from the key's first answer", k)
		return
	}
	if restarted {
		t.update(func(l *layers) { l.storeHitMs = append(l.storeHitMs, ms(d)) })
		return
	}
	t.op(d, 0)
	t.update(func(l *layers) { l.hitMs = append(l.hitMs, ms(d)) })
}

// check reads both servers' cache counters, then times an in-process
// sweep.Run memo hit for every hot key on the first server's cache: the
// baseline that serve.hit_overhead_us subtracts from the HTTP hit.
func (r *serviceRound) check(ctx context.Context) error {
	t := r.t
	for _, s := range r.srv {
		st := s.cache.Stats()
		t.update(func(l *layers) { l.cacheHits += st.Hits + st.StoreHits; l.cacheMisses += st.Misses })
	}
	for _, p := range r.hot {
		start := time.Now()
		rep, err := sweep.Run(ctx, []sweep.Point{p}, sweep.Options{Workers: 1, Cache: r.srv[0].cache})
		d := time.Since(start)
		if err != nil || !rep.Points[0].CacheHit {
			t.fail("in-process replay of %s missed the memo cache (%v)", p, err)
			continue
		}
		t.update(func(l *layers) { l.inprocHitUs = append(l.inprocHitUs, us(d)) })
	}
	return nil
}

func (r *serviceRound) close() error {
	var errs []error
	for _, s := range r.srv {
		if s != nil {
			errs = append(errs, s.stop())
		}
	}
	r.client.CloseIdleConnections()
	return errors.Join(append(errs, os.RemoveAll(r.dir))...)
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (status int, cache string, doc []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	doc, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Srlproc-Cache"), doc, err
}

// liveServer is one serve.Server on a loopback listener over a store
// directory.
type liveServer struct {
	url   string
	cache *sweep.Cache
	st    *timedStore
	hs    *http.Server
	done  chan error
	once  sync.Once
	err   error
}

func startServer(dir string, t *tally, wrap func(http.Handler) http.Handler) (*liveServer, error) {
	st, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, st.Close())
	}
	ts := &timedStore{DiskStore: st, t: t}
	srv := serve.New(serve.Config{Cache: sweep.NewCache(), Store: ts, Workers: 1})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &liveServer{url: "http://" + ln.Addr().String(), cache: srv.Cache(), st: ts,
		hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its handlers and its pending
// store writes. Only the first call does anything.
func (s *liveServer) stop() error {
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.err = s.hs.Shutdown(ctx)
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			s.err = errors.Join(s.err, err)
		}
		s.cache.FlushStore()
		s.err = errors.Join(s.err, s.st.Close())
	})
	return s.err
}

// timedStore times the service's store reads and writes.
type timedStore struct {
	*store.DiskStore
	t *tally
}

func (s *timedStore) Get(key store.Key) (*core.Results, bool, error) {
	id := s.t.rec.beginLane("store.Get", int(s.t.phase.Load()))
	start := time.Now()
	res, ok, err := s.DiskStore.Get(key)
	d := time.Since(start)
	s.t.rec.end(id)
	s.t.update(func(l *layers) {
		l.storeGetUs = append(l.storeGetUs, us(d))
		if ok {
			l.storeGetHits++
		}
	})
	return res, ok, err
}

func (s *timedStore) Put(key store.Key, res *core.Results) (store.Entry, error) {
	id := s.t.rec.beginLane("store.Put", int(s.t.phase.Load()))
	start := time.Now()
	e, err := s.DiskStore.Put(key, res)
	d := time.Since(start)
	s.t.rec.end(id)
	s.t.update(func(l *layers) { l.storePutUs = append(l.storePutUs, us(d)) })
	return e, err
}
