// Command srlserved runs the simulator as a long-lived HTTP service.
//
//	srlserved -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST -H 'Content-Type: application/json' localhost:8080/v1/simulate \
//	     -d '{"design":"srl","suite":"SINT2K","run_uops":40000,"warmup_uops":8000}'
//	curl -s -X POST -H 'Content-Type: application/json' localhost:8080/v1/sweep \
//	     -d '{"experiment":"table3","quick":true}'
//	curl -N -s -X POST -H 'Content-Type: application/json' localhost:8080/v1/sweep \
//	     -d '{"experiment":"fig6","quick":true,"stream":true}'
//
// The server executes jobs on the internal sweep worker pool with
// per-request deadlines, sheds load with 429 + Retry-After once its
// bounded queue is full, collapses retried identical requests onto the
// bounded memo cache, and exports /healthz and /metrics. With -store-dir
// the memo cache gains a persistent tier: results survive restarts (a
// restarted server answers repeated sweeps without simulating), persisted
// points are served by GET /v1/results/{fingerprint}, and GET
// /v1/store/stats reports the store counters.
//
// Cluster mode distributes sweeps across several srlserved processes:
//
//	srlserved -addr :8081 -worker            # worker 1
//	srlserved -addr :8082 -worker            # worker 2
//	srlserved -addr :8080 -workers 127.0.0.1:8081,127.0.0.1:8082
//
// The coordinator splits every /v1/sweep into one-point /v1/jobs RPCs
// routed by consistent hash of each point's fingerprint (so repeated
// sweeps hit the same workers' caches), steals work from stragglers,
// re-dispatches jobs from failed workers, and records each answer at its
// point's index, so the document is byte-identical to a single-node run.
// SIGTERM or SIGINT starts a graceful drain: the listener stops accepting,
// in-flight jobs finish, and after -drain-timeout whatever remains is
// cancelled. A clean drain exits 0; a drain that hit the hard deadline
// exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"srlproc/internal/serve"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		concurrency  = flag.Int("concurrency", 2, "jobs executing at once")
		queue        = flag.Int("queue", 8, "admitted jobs waiting beyond the running ones (0 = shed immediately); excess requests get 429")
		sweepWorkers = flag.Int("sweep-workers", 0, "sweep worker-pool size inside one job (0 = one per CPU)")
		workers      = flag.String("workers", "", "comma-separated cluster worker addresses (host:port or URLs); non-empty makes this node the coordinator")
		workerMode   = flag.Bool("worker", false, "mark this node a cluster worker (role reporting only; every node answers /v1/jobs)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain hard deadline after SIGTERM")
		cacheEntries = flag.Int("cache-entries", sweep.DefaultCacheEntries, "memo cache entry budget (<=0 = unbounded)")
		cacheMB      = flag.Int64("cache-mb", sweep.DefaultCacheBytes>>20, "memo cache byte budget in MiB (<=0 = unbounded)")
		storeDir     = flag.String("store-dir", "", "persistent result-store directory: warm-start the cache across restarts and serve GET /v1/results")
	)
	flag.Parse()

	// SIGTERM/SIGINT cancels the serve context, starting the drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srlserved:", err)
		return 1
	}

	// The Config zero value means "default depth", so a -queue 0 operator
	// request for an actually-empty queue maps to the explicit -1 form.
	queueDepth := *queue
	if queueDepth <= 0 {
		queueDepth = -1
	}
	var resultStore store.ResultStore
	if *storeDir != "" {
		st, err := store.OpenDisk(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "srlserved: -store-dir:", err)
			return 1
		}
		defer st.Close()
		resultStore = st
	}
	var clusterWorkers []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			clusterWorkers = append(clusterWorkers, w)
		}
	}
	if len(clusterWorkers) > 0 && *workerMode {
		fmt.Fprintln(os.Stderr, "srlserved: use -workers (coordinator) or -worker (worker), not both")
		return 1
	}
	srv := serve.New(serve.Config{
		MaxConcurrent:  *concurrency,
		QueueDepth:     queueDepth,
		Workers:        *sweepWorkers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
		Cache:          sweep.NewCacheWithBudget(*cacheEntries, *cacheMB<<20),
		Store:          resultStore,
		ClusterWorkers: clusterWorkers,
		WorkerMode:     *workerMode,
	})
	if resultStore != nil {
		fmt.Fprintf(os.Stderr, "srlserved: result store at %s (stamp %s)\n", *storeDir, store.CodeStamp())
	}
	switch {
	case len(clusterWorkers) > 0:
		fmt.Fprintf(os.Stderr, "srlserved: coordinator for %d workers: %s\n",
			len(clusterWorkers), strings.Join(clusterWorkers, ", "))
	case *workerMode:
		fmt.Fprintln(os.Stderr, "srlserved: cluster worker mode")
	}
	fmt.Fprintf(os.Stderr, "srlserved: listening on %s (concurrency %d, queue %d)\n",
		ln.Addr(), *concurrency, *queue)

	err = srv.Serve(ctx, ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "srlserved:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "srlserved: drained cleanly")
	return 0
}
