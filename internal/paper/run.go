package paper

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"srlproc/internal/bench"
	"srlproc/internal/cluster"
	"srlproc/internal/serve"
	"srlproc/internal/store"
)

// Layout of one run directory (paper_runs/<stamp>/):
//
//	experiments.json   the grid that produced the run (provenance copy)
//	manifest.json      what ran, under which code, and how long it took
//	state.json         resumable per-unit completion state
//	csv/<key>.csv      one validated CSV per experiment × repeat
//	csv/<key>.json     the full result document (byte-compared across repeats)
//	logs/<key>.log     per-unit execution log
//	analysis/          summary stats, tables, plots, report.md (Analyze)
const (
	csvDir      = "csv"
	logDir      = "logs"
	analysisDir = "analysis"

	manifestFile = "manifest.json"
	stateFile    = "state.json"
	gridCopyFile = "experiments.json"
)

// ManifestUnit records one executed unit in the manifest.
type ManifestUnit struct {
	Experiment string `json:"experiment"`
	Repeat     int    `json:"repeat"`
	Points     int    `json:"points"`
	WallMs     int64  `json:"wall_ms"`
	SHA256     string `json:"sha256"` // of the result JSON document
	Resumed    bool   `json:"resumed,omitempty"`
}

// Manifest records a run's provenance: the exact code (stamp + VCS
// revision), the exact configuration (grid hash + profile) and the wall
// time each experiment cost. Wall times vary run to run, so the manifest
// lives outside the byte-stable csv/ and analysis/ trees.
type Manifest struct {
	Stamp      string         `json:"stamp"`
	Profile    string         `json:"profile"`
	ConfigHash string         `json:"config_hash"`
	CodeStamp  string         `json:"code_stamp"`
	GitSHA     string         `json:"git_sha,omitempty"`
	GoVersion  string         `json:"go_version"`
	Server     string         `json:"server,omitempty"`
	Units      []ManifestUnit `json:"units"`
	WallMs     int64          `json:"wall_ms"`
}

// unitState is one completed unit's entry in state.json.
type unitState struct {
	SHA256 string `json:"sha256"`
	WallMs int64  `json:"wall_ms"`
	Points int    `json:"points"`
}

// runState is the resumable completion state. A run directory only
// resumes under the same (grid, profile) fingerprint: editing either
// starts over instead of mixing schemas.
type runState struct {
	ConfigHash string               `json:"config_hash"`
	Profile    string               `json:"profile"`
	Done       map[string]unitState `json:"done"`
}

// RunnerConfig parameterises one pipeline run.
type RunnerConfig struct {
	Grid      *Grid
	GridBytes []byte
	Profile   string
	// Only restricts the plan to these experiments (nil = the whole grid).
	Only []bench.ExperimentID
	// Repeats overrides every repeat count when positive.
	Repeats int
	// Dir is the run directory (paper_runs/<stamp>).
	Dir   string
	Stamp string
	// Server, when set, executes every experiment against a running
	// srlserved via POST /v1/sweep instead of in-process — the pipeline
	// then doubles as a standing load generator for the service.
	Server string
	// Workers sizes the in-process sweep pool (or the per-job pool the
	// server is asked for); 0 keeps each side's default.
	Workers int
	// Resume skips units state.json already records as complete.
	Resume bool
	// Log receives human progress lines; nil discards them.
	Log io.Writer
	// Client overrides the HTTP client for -server mode (tests).
	Client *http.Client
}

// Runner executes a grid plan into a run directory.
type Runner struct {
	cfg   RunnerConfig
	units []Unit
	state runState
}

// NewRunner validates the config and resolves the plan.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	units, err := cfg.Grid.Plan(cfg.Profile, cfg.Only, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, units: units}, nil
}

// Units returns the resolved plan.
func (r *Runner) Units() []Unit { return r.units }

// Run executes the plan and writes the manifest. Completed units are
// checkpointed into state.json one by one, so an interrupted run resumes
// from the last finished experiment instead of starting over.
func (r *Runner) Run(ctx context.Context) (*Manifest, error) {
	start := time.Now()
	for _, d := range []string{"", csvDir, logDir, analysisDir} {
		if err := os.MkdirAll(filepath.Join(r.cfg.Dir, d), 0o755); err != nil {
			return nil, fmt.Errorf("paper: %w", err)
		}
	}
	hash := ConfigHash(r.cfg.GridBytes, r.cfg.Profile)
	if err := r.loadState(hash); err != nil {
		return nil, err
	}
	// Provenance copy: the grid as it was when the run started.
	if err := writeFileAtomic(filepath.Join(r.cfg.Dir, gridCopyFile), r.cfg.GridBytes); err != nil {
		return nil, err
	}

	m := &Manifest{
		Stamp:      r.cfg.Stamp,
		Profile:    r.cfg.Profile,
		ConfigHash: hash,
		CodeStamp:  store.CodeStamp(),
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		Server:     r.cfg.Server,
	}
	for _, u := range r.units {
		mu, err := r.runUnit(ctx, u)
		if err != nil {
			return nil, fmt.Errorf("paper: %s: %w", u.Key(), err)
		}
		m.Units = append(m.Units, *mu)
		m.WallMs = time.Since(start).Milliseconds()
		if err := r.writeManifest(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// runUnit executes (or resumes) one experiment × repeat.
func (r *Runner) runUnit(ctx context.Context, u Unit) (*ManifestUnit, error) {
	key := u.Key()
	csvPath := filepath.Join(r.cfg.Dir, csvDir, key+".csv")
	docPath := filepath.Join(r.cfg.Dir, csvDir, key+".json")
	shape, err := bench.Shape(u.ID, u.Options)
	if err != nil {
		return nil, err
	}

	if done, ok := r.state.Done[key]; ok && fileExists(csvPath) && fileExists(docPath) {
		fmt.Fprintf(r.cfg.Log, "resume  %-12s %d points (done)\n", key, done.Points)
		return &ManifestUnit{Experiment: u.ID.String(), Repeat: u.Repeat,
			Points: done.Points, WallMs: done.WallMs, SHA256: done.SHA256, Resumed: true}, nil
	}

	o := u.Options
	if r.cfg.Workers != 0 {
		o.Workers = r.cfg.Workers
	}
	fmt.Fprintf(r.cfg.Log, "run     %-12s %d points (repeat %d/%d)\n", key, shape.Points, u.Repeat, u.Repeats)

	logPath := filepath.Join(r.cfg.Dir, logDir, key+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	fmt.Fprintf(lf, "unit: %s\nexperiment: %s repeat %d/%d\npoints: %d\nuops: %d warmup: %d seed: %d nocache: %v\nstart: %s\n",
		key, u.ID, u.Repeat, u.Repeats, shape.Points,
		o.RunUops, o.WarmupUops, o.Seed, o.NoCache, time.Now().Format(time.RFC3339))

	begin := time.Now()
	var doc []byte
	if r.cfg.Server != "" {
		doc, err = r.runServer(ctx, u.ID, o)
	} else {
		doc, err = runLocal(ctx, u.ID, o)
	}
	wall := time.Since(begin)
	if err != nil {
		fmt.Fprintf(lf, "error: %v\n", err)
		return nil, err
	}

	// One CSV path for both execution modes: the CSV is always rendered
	// from the result document itself, so a server-produced artifact is
	// byte-identical to a local one by construction.
	csvBytes, err := resultCSV(u.ID, doc)
	if err != nil {
		return nil, fmt.Errorf("render CSV: %w", err)
	}
	if err := writeFileAtomic(docPath, doc); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(csvPath, csvBytes); err != nil {
		return nil, err
	}
	if err := ValidateCSV(csvPath, shape); err != nil {
		return nil, err
	}

	sum := sha256.Sum256(doc)
	st := unitState{SHA256: hex.EncodeToString(sum[:]), WallMs: wall.Milliseconds(), Points: shape.Points}
	r.state.Done[key] = st
	if err := r.writeState(); err != nil {
		return nil, err
	}
	fmt.Fprintf(lf, "end: %s\nwall_ms: %d\nsha256: %s\ncsv: %s\n",
		time.Now().Format(time.RFC3339), st.WallMs, st.SHA256, filepath.Base(csvPath))
	fmt.Fprintf(r.cfg.Log, "done    %-12s %s  sha %s\n", key, wall.Round(time.Millisecond), st.SHA256[:12])
	return &ManifestUnit{Experiment: u.ID.String(), Repeat: u.Repeat,
		Points: shape.Points, WallMs: st.WallMs, SHA256: st.SHA256}, nil
}

// runLocal executes one experiment in-process on the sweep engine and
// returns its canonical JSON document — the same bytes `experiments
// -json -only <id>` would print.
func runLocal(ctx context.Context, id bench.ExperimentID, o bench.Options) ([]byte, error) {
	res, err := bench.RunExperiment(ctx, id, o)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// runServer executes one experiment against a running srlserved via
// POST /v1/sweep, retrying bounded 429 sheds after the backoff their
// error envelope advertises. Request and error envelope are the /v1 wire
// types themselves. The response body is the same document runLocal
// produces.
func (r *Runner) runServer(ctx context.Context, id bench.ExperimentID, o bench.Options) ([]byte, error) {
	client := r.cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(serve.SweepRequest{
		Experiment: id.String(),
		RunUops:    o.RunUops,
		WarmupUops: o.WarmupUops,
		Seed:       o.Seed,
		Workers:    r.cfg.Workers,
		NoCache:    o.NoCache,
	})
	if err != nil {
		return nil, err
	}
	url := r.cfg.Server + "/v1/sweep"
	const maxRetries = 5
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		doc, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			// The server's writeJSON appends a newline that the local
			// json.Marshal path does not; trim it so the two execution
			// modes emit byte-identical documents.
			return bytes.TrimRight(doc, "\n"), nil
		}
		apiErr := cluster.DecodeError(resp.StatusCode, doc)
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= maxRetries {
			return nil, fmt.Errorf("%s: HTTP %d: %s: %s", url, resp.StatusCode, apiErr.Code, apiErr.Message)
		}
		// Back off as the shed envelope advises, within [1s, 10s].
		delay := min(max(apiErr.RetryAfter(time.Second), time.Second), 10*time.Second)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (r *Runner) loadState(hash string) error {
	r.state = runState{ConfigHash: hash, Profile: r.cfg.Profile, Done: map[string]unitState{}}
	path := filepath.Join(r.cfg.Dir, stateFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("paper: %w", err)
	}
	if !r.cfg.Resume {
		return fmt.Errorf("paper: %s already has run state; pass -resume to continue it or use a fresh stamp", r.cfg.Dir)
	}
	var prev runState
	if err := json.Unmarshal(raw, &prev); err != nil {
		return fmt.Errorf("paper: %s: %w", path, err)
	}
	if prev.ConfigHash != hash || prev.Profile != r.cfg.Profile {
		return fmt.Errorf("paper: %s was produced by config %s profile %q; current is %s profile %q — start a fresh run",
			r.cfg.Dir, prev.ConfigHash, prev.Profile, hash, r.cfg.Profile)
	}
	if prev.Done != nil {
		r.state.Done = prev.Done
	}
	return nil
}

func (r *Runner) writeState() error {
	b, err := json.MarshalIndent(r.state, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(r.cfg.Dir, stateFile), append(b, '\n'))
}

func (r *Runner) writeManifest(m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(r.cfg.Dir, manifestFile), append(b, '\n'))
}

// gitSHA reads the build's VCS revision, when the binary was built from a
// checkout (go run / go build stamp it automatically).
func gitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

// writeFileAtomic writes via a temp file + rename, so a crashed run never
// leaves a half-written artifact that a resume would then trust.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
