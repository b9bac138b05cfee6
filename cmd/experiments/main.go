// Command experiments regenerates every table and figure in the paper's
// evaluation section and prints them in order.
//
// Simulation points run on the bounded worker pool of internal/sweep:
// -workers sizes the pool, -timeout bounds the whole run, -progress prints
// live per-point progress, and -nocache disables the cross-experiment
// result memoization that otherwise simulates recurring configurations
// (the baseline, the SRL) only once. Ctrl-C cancels gracefully: in-flight
// points abort and the process exits instead of leaking goroutines.
//
// -store-dir points at a persistent result store (internal/store): points
// simulated by earlier runs of the same binary are replayed from disk
// instead of recomputed, and fresh results are persisted for the next run.
//
// Output is the paper's tables by default; -json and -csv switch to
// machine-readable exports. -timeline and -trace-out enable per-run
// observability (internal/obs) and export the cycle-window time-series
// and the Chrome-trace event stream of the simulated points.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error, 124 when
// -timeout expired, 130 when interrupted (Ctrl-C / SIGTERM).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"srlproc/internal/bench"
	"srlproc/internal/cli"
	"srlproc/internal/core"
	"srlproc/internal/obs"
	"srlproc/internal/store"
	"srlproc/internal/sweep"
	"srlproc/internal/trace"
)

// cliOnlySections are the -only selections that are rendered report
// sections rather than sweepable experiments.
var cliOnlySections = []string{"table1", "table2", "power"}

// onlyHelp builds the -only flag's help text from the real selection sets:
// the run loop and the help both follow bench.AllExperiments, so the help
// can never drift from what the command actually accepts.
func onlyHelp() string {
	names := []string{cliOnlySections[0], cliOnlySections[1]}
	for _, id := range bench.AllExperiments() {
		names = append(names, id.String())
	}
	names = append(names, cliOnlySections[2])
	return "run only one experiment: " + strings.Join(names, ",")
}

// main delegates to run so that deferred cleanup — most importantly the
// signal.NotifyContext stop function — executes on every return path.
// os.Exit and log.Fatal inside run would skip those defers.
func main() { os.Exit(run()) }

func run() int {
	quick := flag.Bool("quick", false, "run at reduced scale for a fast sanity pass")
	uops := flag.Uint64("uops", 0, "override measured micro-ops per point")
	warm := flag.Uint64("warmup", 0, "override warmup micro-ops per point")
	seed := flag.Uint64("seed", 1, "workload seed")
	only := flag.String("only", "", onlyHelp())
	figure := flag.Int("figure", 0, "run only one figure by number (2,6,7,8,9,10); shorthand for -only figN")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = one per CPU, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (e.g. 10m); 0 = no limit")
	progress := flag.Bool("progress", false, "print live sweep progress to stderr")
	nocache := flag.Bool("nocache", false, "disable cross-experiment result memoization")
	storeDir := flag.String("store-dir", "", "persistent result-store directory: reuse results from earlier runs of this binary and persist new ones")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	csvOut := flag.Bool("csv", false, "emit results as CSV instead of tables")
	timelineOut := flag.String("timeline", "", "write every point's cycle-window timeline as one CSV to this file ('-' = stdout); enables sampling")
	traceOut := flag.String("trace-out", "", "write one point's event trace in Chrome trace format to this file ('-' = stdout); enables tracing")
	tracePoint := flag.String("trace-point", "", "point whose trace -trace-out exports, as 'label/SUITE' (default: first point with events)")
	sampleEvery := flag.Uint64("sample-every", obs.DefaultSampleEvery, "timeline sampling window in cycles (with -timeline)")
	flag.Parse()

	usage := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		return cli.Usage
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		return cli.Err
	}

	if *figure != 0 {
		if *only != "" {
			return usage("use -only or -figure, not both")
		}
		*only = fmt.Sprintf("fig%d", *figure)
	}
	// Selections resolve through bench.ParseExperimentID, so the
	// "figure2"-style aliases work and a typo'd or unknown name fails
	// loudly instead of silently running nothing. table1/table2/power are
	// rendered sections, not sweepable experiments, and stay CLI-only.
	if *only != "" {
		switch *only {
		case cliOnlySections[0], cliOnlySections[1], cliOnlySections[2]:
		default:
			id, err := bench.ParseExperimentID(*only)
			if err != nil {
				return usage("%v (or a CLI-only section: %s)", err, strings.Join(cliOnlySections, ", "))
			}
			*only = id.String()
		}
	}
	if *jsonOut && *csvOut {
		return usage("use -json or -csv, not both")
	}
	if *timelineOut == "-" && *traceOut == "-" {
		return usage("-timeline and -trace-out cannot both write to stdout")
	}
	if (*timelineOut == "-" || *traceOut == "-") && (*jsonOut || *csvOut) {
		return usage("-timeline/-trace-out '-' conflicts with -json/-csv on stdout; write to a file instead")
	}
	// When a streaming export owns stdout, the human-readable tables move
	// to stderr so the exported document stays parseable.
	reportOut := io.Writer(os.Stdout)
	if *timelineOut == "-" || *traceOut == "-" {
		reportOut = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	o := bench.DefaultOptions()
	if *quick {
		o = bench.QuickOptions()
	}
	if *uops > 0 {
		o.RunUops = *uops
	}
	if *warm > 0 {
		o.WarmupUops = *warm
	}
	o.Seed = *seed
	o.Workers = *workers
	o.NoCache = *nocache
	if *progress {
		o.Progress = progressPrinter()
	}
	if *timelineOut != "" {
		o.Obs.SampleEvery = *sampleEvery
	}
	if *traceOut != "" {
		o.Obs.TraceEvents = true
	}
	if err := o.Validate(); err != nil {
		return usage("%v", err)
	}

	// -store-dir makes the run's results durable: the memo cache falls
	// through to the on-disk store before simulating, so a rerun of the
	// same binary over the same points replays instead of recomputing.
	if *storeDir != "" {
		st, err := store.OpenDisk(*storeDir)
		if err != nil {
			return fail("-store-dir: %v", err)
		}
		cache := o.Cache
		if cache == nil {
			cache = sweep.Global()
		}
		cache.AttachStore(st)
		defer func() {
			cache.FlushStore()
			cache.AttachStore(nil)
			st.Close()
		}()
	}

	want := func(name string) bool { return *only == "" || *only == name }

	// jsonDocs collects every selected experiment's JSON document; a single
	// selection prints bare, multiple print as one name-keyed object.
	type namedDoc struct {
		name string
		doc  json.RawMessage
	}
	var jsonDocs []namedDoc
	var observed []labeledResult

	emitText := func(name, text string) int {
		switch {
		case *jsonOut:
			doc, err := json.Marshal(text)
			if err != nil {
				return fail("%s: %v", name, err)
			}
			jsonDocs = append(jsonDocs, namedDoc{name, doc})
		case *csvOut:
			// Configuration echoes have no CSV form; skip them silently
			// unless explicitly selected.
			if *only == name {
				return usage("%s has no CSV form", name)
			}
		default:
			fmt.Fprintln(reportOut, text)
		}
		return cli.OK
	}

	if want("table1") {
		if code := emitText("table1", bench.RenderTable1()); code != cli.OK {
			return code
		}
	}
	if want("table2") {
		if code := emitText("table2", bench.RenderTable2()); code != cli.OK {
			return code
		}
	}
	// Every experiment dispatches through bench.RunExperiment, in
	// presentation order.
	for _, id := range bench.AllExperiments() {
		name := id.String()
		if !want(name) {
			continue
		}
		r, err := bench.RunExperiment(ctx, id, o)
		if *progress {
			fmt.Fprintln(os.Stderr)
		}
		if err != nil {
			switch code := cli.ExitCode(err); code {
			case cli.Interrupt:
				fmt.Fprintf(os.Stderr, "experiments: %s: interrupted: %v\n", name, err)
				return code
			case cli.Timeout:
				fmt.Fprintf(os.Stderr, "experiments: %s: timed out: %v\n", name, err)
				return code
			default:
				return fail("%s: %v", name, err)
			}
		}
		observed = append(observed, rawResults(r)...)
		switch {
		case *jsonOut:
			doc, err := json.Marshal(r)
			if err != nil {
				return fail("%s: %v", name, err)
			}
			jsonDocs = append(jsonDocs, namedDoc{name, doc})
		case *csvOut:
			if *only == "" {
				fmt.Printf("# %s\n", name)
			}
			if err := r.WriteCSV(os.Stdout); err != nil {
				return fail("%s: %v", name, err)
			}
		default:
			fmt.Fprintln(reportOut, r.String())
		}
	}
	if want("power") {
		if code := emitText("power", bench.RunPowerArea()); code != cli.OK {
			return code
		}
	}

	if *jsonOut {
		out := bufio.NewWriter(os.Stdout)
		if len(jsonDocs) == 1 {
			out.Write(jsonDocs[0].doc)
			out.WriteByte('\n')
		} else {
			obj := make(map[string]json.RawMessage, len(jsonDocs))
			for _, d := range jsonDocs {
				obj[d.name] = d.doc
			}
			enc := json.NewEncoder(out)
			if err := enc.Encode(obj); err != nil {
				return fail("%v", err)
			}
		}
		if err := out.Flush(); err != nil {
			return fail("%v", err)
		}
	}

	if *timelineOut != "" {
		if err := writeTimelines(*timelineOut, observed); err != nil {
			return fail("-timeline: %v", err)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, *tracePoint, observed); err != nil {
			return fail("-trace-out: %v", err)
		}
	}
	return cli.OK
}

// labeledResult names one simulated point's results for export.
type labeledResult struct {
	Label string
	Suite trace.Suite
	Res   *core.Results
}

// rawResults extracts the per-point results an experiment retains, in
// deterministic (label, suite) order. Experiments without raw results
// (energy, latency, ordering) contribute nothing.
func rawResults(r bench.Result) []labeledResult {
	var out []labeledResult
	bySuite := func(label string, m map[trace.Suite]*core.Results) {
		for _, su := range trace.AllSuites() {
			if res := m[su]; res != nil {
				out = append(out, labeledResult{label, su, res})
			}
		}
	}
	switch v := r.(type) {
	case *bench.FigureResult:
		labels := make([]string, 0, len(v.Raw))
		for label := range v.Raw {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		for _, label := range labels {
			bySuite(label, v.Raw[label])
		}
	case *bench.Table3Result:
		bySuite("srl", v.Raw)
	case *bench.Figure7Result:
		bySuite("srl", v.Raw)
	}
	return out
}

// writeTimelines renders every observed point's timeline into one CSV,
// with leading label/suite columns so a plotting script can facet on them.
func writeTimelines(path string, points []labeledResult) error {
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	defer closeFn()
	bw := bufio.NewWriter(w)
	wrote := false
	for _, p := range points {
		if p.Res.Timeline == nil {
			continue
		}
		var sb strings.Builder
		if err := p.Res.Timeline.WriteCSV(&sb); err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
		if !wrote {
			fmt.Fprintf(bw, "label,suite,%s\n", lines[0])
			wrote = true
		}
		for _, line := range lines[1:] {
			fmt.Fprintf(bw, "%s,%s,%s\n", p.Label, p.Suite, line)
		}
	}
	if !wrote {
		return errors.New("no timelines recorded (cache hit? rerun with -nocache)")
	}
	return bw.Flush()
}

// writeTrace renders one observed point's event trace in Chrome trace
// format. sel selects the point as "label/SUITE"; empty means the first
// point that recorded any events.
func writeTrace(path, sel string, points []labeledResult) error {
	var chosen *labeledResult
	for i := range points {
		p := &points[i]
		if p.Res.Trace == nil {
			continue
		}
		if sel != "" {
			if sel == p.Label+"/"+p.Suite.String() {
				chosen = p
				break
			}
			continue
		}
		if p.Res.Trace.Len() > 0 {
			chosen = p
			break
		}
	}
	if chosen == nil {
		if sel != "" {
			return fmt.Errorf("point %q not found or recorded no trace (cache hit? rerun with -nocache)", sel)
		}
		return errors.New("no traces recorded (cache hit? rerun with -nocache)")
	}
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	defer closeFn()
	fmt.Fprintf(os.Stderr, "trace-out: exporting %s/%s (%d events)\n", chosen.Label, chosen.Suite, chosen.Res.Trace.Len())
	return chosen.Res.Trace.WriteChromeTrace(w, chosen.Res.Timeline)
}

// openOut opens path for writing; "-" means stdout.
func openOut(path string) (io.Writer, func(), error) {
	if path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// progressPrinter renders an in-place progress line on stderr.
func progressPrinter() bench.ProgressFunc {
	return func(p bench.Progress) {
		eta := "--"
		if p.ETA > 0 {
			eta = p.ETA.Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "\r%3d/%d points  %d cached  %d failed  elapsed %s  eta %s   [%s]      ",
			p.Done, p.Total, p.CacheHits, p.Failed,
			p.Elapsed.Round(time.Second), eta, p.Last)
	}
}
