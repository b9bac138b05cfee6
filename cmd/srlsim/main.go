// Command srlsim runs one simulation point — a store-processing design on
// a benchmark suite — and prints its statistics. It is the workhorse for
// interactive exploration; cmd/experiments regenerates the paper's full
// evaluation.
//
// Examples:
//
//	srlsim -design srl -suite SFP2K
//	srlsim -design hier -suite SERVER -uops 500000
//	srlsim -design large -stq 256 -suite WS -v
//	srlsim -design srl -suite SFP2K -json
//	srlsim -design srl -suite WEB -timeline ts.csv -trace-out trace.json
//
// Exit codes: 0 success, 1 runtime error, 2 usage error, 124 when
// -timeout expired, 130 when interrupted (Ctrl-C / SIGTERM).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"srlproc"
	"srlproc/internal/cli"
)

// main delegates to run so that deferred cleanup — most importantly the
// signal.NotifyContext stop function — executes on every return path.
// os.Exit and log.Fatal inside run would skip those defers.
func main() { os.Exit(run()) }

func run() int {
	design := flag.String("design", "srl", "store design: baseline, large, hier, srl, filtered")
	suite := flag.String("suite", "SINT2K", "benchmark suite: SFP2K, SINT2K, WEB, MM, PROD, SERVER, WS")
	stq := flag.Int("stq", 0, "store queue size for -design large (default 1024)")
	uops := flag.Uint64("uops", 250_000, "measured micro-ops")
	warm := flag.Uint64("warmup", 50_000, "warmup micro-ops")
	seed := flag.Uint64("seed", 1, "workload seed")
	timeout := flag.Duration("timeout", 0, "abort the simulation after this long (e.g. 2m); 0 = no limit")
	noLCF := flag.Bool("no-lcf", false, "disable the loose check filter (srl)")
	noIF := flag.Bool("no-indexed-fwd", false, "disable indexed forwarding (srl)")
	noFC := flag.Bool("no-fc", false, "use the data cache for temporary updates instead of the FC (srl)")
	noSkip := flag.Bool("noskip", false, "disable event-driven cycle skipping (bit-identical results, slower wall clock)")
	verbose := flag.Bool("v", false, "print extra counters")
	asJSON := flag.Bool("json", false, "emit the full results document as JSON")
	asCSV := flag.Bool("csv", false, "emit the results as CSV (header + one row)")
	timelineOut := flag.String("timeline", "", "write the cycle-window timeline as CSV to this file ('-' = stdout); enables sampling")
	traceOut := flag.String("trace-out", "", "write the event trace in Chrome trace format to this file ('-' = stdout); enables tracing")
	sampleEvery := flag.Uint64("sample-every", 0, "timeline sampling window in cycles (default 4096 with -timeline)")
	flag.Parse()

	usage := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "srlsim: "+format+"\n", args...)
		return cli.Usage
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "srlsim: "+format+"\n", args...)
		return cli.Err
	}

	if *asJSON && *asCSV {
		return usage("use -json or -csv, not both")
	}
	if *timelineOut == "-" && *traceOut == "-" {
		return usage("-timeline and -trace-out cannot both write to stdout")
	}
	if (*timelineOut == "-" || *traceOut == "-") && (*asJSON || *asCSV) {
		return usage("-timeline/-trace-out '-' conflicts with -json/-csv on stdout; write to a file instead")
	}
	// When a streaming export owns stdout, the text report moves to stderr
	// so the exported document stays parseable.
	reportOut := io.Writer(os.Stdout)
	if *timelineOut == "-" || *traceOut == "-" {
		reportOut = os.Stderr
	}

	// Ctrl-C / SIGTERM cancels the run instead of killing it mid-print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	d, err := srlproc.ParseDesign(*design)
	if err != nil {
		return usage("unknown design %q", *design)
	}
	su, err := srlproc.ParseSuite(*suite)
	if err != nil {
		return usage("unknown suite %q", *suite)
	}

	cfg := srlproc.DefaultConfig(d)
	cfg.RunUops = *uops
	cfg.WarmupUops = *warm
	cfg.Seed = *seed
	if d == srlproc.DesignLargeSTQ || d == srlproc.DesignFilteredSTQ {
		cfg.STQSize = 1024
		if *stq > 0 {
			cfg.STQSize = *stq
		}
	}
	if *noLCF {
		cfg.UseLCF = false
		cfg.UseIndexedFwd = false
	}
	if *noIF {
		cfg.UseIndexedFwd = false
	}
	if *noFC {
		cfg.UseFC = false
	}
	if *noSkip {
		cfg.EventSkip = false
	}
	if *timelineOut != "" || *sampleEvery > 0 {
		cfg.Obs.SampleEvery = *sampleEvery
		if cfg.Obs.SampleEvery == 0 {
			cfg.Obs.SampleEvery = srlproc.DefaultObsConfig().SampleEvery
		}
	}
	if *traceOut != "" {
		cfg.Obs.TraceEvents = true
	}

	res, err := srlproc.RunContext(ctx, cfg, su)
	if err != nil {
		switch code := cli.ExitCode(err); code {
		case cli.Interrupt:
			fmt.Fprintf(os.Stderr, "srlsim: interrupted: %v\n", err)
			return code
		case cli.Timeout:
			fmt.Fprintf(os.Stderr, "srlsim: timed out after %v: %v\n", *timeout, err)
			return code
		default:
			return fail("%v", err)
		}
	}
	if *timelineOut != "" {
		if err := writeTo(*timelineOut, res.Timeline.WriteCSV); err != nil {
			return fail("-timeline: %v", err)
		}
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, func(w io.Writer) error {
			return res.Trace.WriteChromeTrace(w, res.Timeline)
		}); err != nil {
			return fail("-trace-out: %v", err)
		}
	}
	switch {
	case *asJSON:
		// Results.MarshalJSON emits every raw counter plus the derived
		// figures (ipc, redone-store percentages, ...), the typed metric
		// set, and the timeline/trace summary when observability is on.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail("%v", err)
		}
	case *asCSV:
		if err := res.WriteCSV(os.Stdout); err != nil {
			return fail("%v", err)
		}
	default:
		fmt.Fprint(reportOut, res)
		if d == srlproc.DesignSRL {
			fmt.Fprintf(reportOut, "  SRL: redone=%.1f%% stalls/10k=%.1f occupied=%.1f%%\n",
				res.PctRedoneStores(), res.SRLStallsPer10K(), res.PctTimeSRLOccupied())
		}
		if *verbose {
			for _, name := range res.ExtraNames() {
				fmt.Fprintf(reportOut, "%-40s %d\n", name, res.Extra(name))
			}
		}
	}
	return cli.OK
}

// writeTo opens path ("-" = stdout) and hands it to write.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
