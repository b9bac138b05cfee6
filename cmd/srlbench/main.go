// Command srlbench is the repository's benchmark. It runs named workloads of
// the simulator end to end, checks their outputs, and prints every metric
// that BENCHMARK.json declares, by name and with its unit; the last line of
// a run is one JSON object with the results. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("srlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = fs.Uint64("seed", 1, "orders the workload's inputs; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 20, "measure for about this many seconds")
		traced   = fs.Int("trace", 0, "1: run one traced round (CPU profile and spans) and print the per-layer metrics")
		traceDir = fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes <workload>.{cpu.pprof,spans.json,layers.json}")
		workDir  = fs.String("work-dir", filepath.Join(".bench_build", "work"), "directory for the service workload's stores")
		root     = fs.String("root", ".", "repository root")
		smoke    = fs.Bool("smoke", false, "tiny inputs, for tests")
		expected = fs.String("expected", filepath.Join("cmd", "srlbench", "testdata", "expected.json"), "expected output digests")
		update   = fs.Bool("update", false, "write the output digests to -expected instead of checking them")
		repeat   = fs.Int("repeat", 0, "run each workload this many times in fresh processes, with seeds seed, seed+1, ..., and summarise every metric")
		out      = fs.String("o", "", "with -repeat, write the summary JSON to this file")
		compare  = fs.Bool("compare", false, "compare two -repeat summaries under BENCHMARK.json's bounds: -compare base.json head.json")
		decl     = fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration -compare reads the bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "srlbench: "+format+"\n", a...)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			return usage("-compare takes two summaries: base.json head.json")
		}
		return runCompare(*decl, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case *traced != 0 && *traced != 1:
		return usage("-trace is 0 or 1, not %d", *traced)
	case *seconds < 1:
		return usage("-seconds must be at least 1")
	case *repeat < 0:
		return usage("-repeat must not be negative")
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if _, ok := findWorkload(*name); !ok {
		return usage("unknown workload %q (have: %s, all)", *name, strings.Join(workloadNames(), ", "))
	}
	if *repeat > 0 || *name == "all" {
		flags := []string{"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*traced),
			"-trace-dir", *traceDir, "-work-dir", *workDir, "-root", *root, "-expected", *expected}
		if *smoke {
			flags = append(flags, "-smoke")
		}
		if *update {
			flags = append(flags, "-update")
		}
		return runChildren(ctx, names, *seed, max(1, *repeat), flags, *repeat > 0, *out, stdout, stderr)
	}
	w, _ := findWorkload(*name)
	o := &opts{root: *root, seed: *seed, budget: time.Duration(*seconds) * time.Second, smoke: *smoke,
		traceDir: *traceDir, workDir: *workDir, expected: *expected, update: *update}
	measureFn := measure
	if *traced == 1 {
		measureFn = traceMeasure
	}
	oc, err := measureFn(ctx, w, o)
	if err != nil {
		fmt.Fprintf(stderr, "srlbench: %v\n", err)
		return 1
	}
	for _, l := range oc.info {
		fmt.Fprintln(stdout, l)
	}
	b, err := json.Marshal(oc.res)
	if err != nil {
		fmt.Fprintf(stderr, "srlbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !oc.res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runChildren runs every named workload n times, each run in a fresh
// process of this binary, and passes their output through. With summarize
// it then prints each metric's spread over the runs and writes the
// summary to outPath.
func runChildren(ctx context.Context, names []string, seed uint64, n int, flags []string, summarize bool, outPath string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "srlbench: %v\n", err)
		return 1
	}
	code := 0
	all := &summary{Workloads: map[string]*runSummary{}}
	for _, name := range names {
		var results []result
		var seeds []uint64
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			args := append([]string{"-workload", name, "-seed", strconv.FormatUint(s, 10)}, flags...)
			res, err := runChild(ctx, exe, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "srlbench: %s seed %d: %v\n", name, s, err)
				code = 1
				if ctx.Err() != nil {
					return code
				}
				continue
			}
			if !res.Correct {
				code = 1
			}
			results, seeds = append(results, *res), append(seeds, s)
		}
		if len(results) > 0 {
			all.Workloads[name] = summarizeRuns(results, seeds)
		}
	}
	if !summarize {
		return code
	}
	printSummary(all, stdout)
	if outPath != "" {
		if err := writeJSONFile(outPath, all); err != nil {
			fmt.Fprintf(stderr, "srlbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "summary written to %s\n", outPath)
	}
	return code
}

// runChild runs one child process, copies its report to stdout and returns
// the result from its last line.
func runChild(ctx context.Context, exe string, args []string, stdout, stderr io.Writer) (*result, error) {
	var buf bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	stdout.Write(buf.Bytes())
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return &res, nil
}
