package multicore

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"srlproc/internal/core"
	"srlproc/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

// goldenRun is one golden point's pinned outcome: every core's Results
// document, the lockstep cycle count and the bus's snoop counts.
type goldenRun struct {
	Cycles          uint64            `json:"cycles"`
	SnoopsDelivered uint64            `json:"snoops_delivered"`
	SnoopsDropped   uint64            `json:"snoops_dropped"`
	PerCore         []json.RawMessage `json:"per_core"`
}

// goldenPoints is the multicore golden matrix: baseline and SRL, 2 and 4
// cores, SERVER and SFP2K, each core 2K warm-up plus 8K measured uops at
// the default sharing fraction and bus latency.
func goldenPoints() []struct {
	Name string
	Cfg  Config
} {
	var pts []struct {
		Name string
		Cfg  Config
	}
	for _, d := range []core.StoreDesign{core.DesignBaseline, core.DesignSRL} {
		for _, n := range []int{2, 4} {
			for _, su := range []trace.Suite{trace.SERVER, trace.SFP2K} {
				cfg := DefaultConfig(d, su)
				cfg.Cores = n
				cfg.Core.WarmupUops = 2_000
				cfg.Core.RunUops = 8_000
				pts = append(pts, struct {
					Name string
					Cfg  Config
				}{fmt.Sprintf("%s/%dcore/%s", d, n, su), cfg})
			}
		}
	}
	return pts
}

// TestMulticoreGolden pins multicore results byte for byte: the bus
// delivery path (ExternalSnoop, the hierarchy's snoop, the caches'
// invalidations) runs thousands of times per point here and nowhere in the
// single-core goldens. Regenerate with `go test ./internal/multicore -update`.
func TestMulticoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "golden.json")
	golden := map[string]json.RawMessage{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run go test ./internal/multicore -update): %v", err)
		}
		if err := json.Unmarshal(b, &golden); err != nil {
			t.Fatal(err)
		}
	}
	fresh := map[string]json.RawMessage{}
	for _, pt := range goldenPoints() {
		pt := pt
		t.Run(pt.Name, func(t *testing.T) {
			s, err := New(pt.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			g := goldenRun{Cycles: res.Cycles, SnoopsDelivered: res.SnoopsDelivered, SnoopsDropped: res.SnoopsDropped}
			for _, c := range res.PerCore {
				b, err := json.Marshal(c)
				if err != nil {
					t.Fatal(err)
				}
				g.PerCore = append(g.PerCore, b)
			}
			got, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			fresh[pt.Name] = got
			if *updateGolden {
				return
			}
			want, ok := golden[pt.Name]
			if !ok {
				t.Fatalf("point %s missing from %s (run -update)", pt.Name, goldenPath)
			}
			// The golden file stores each run re-indented; compare
			// compacted forms.
			var wantC bytes.Buffer
			if err := json.Compact(&wantC, want); err != nil {
				t.Fatal(err)
			}
			if wantC.String() != string(got) {
				t.Fatalf("drifted from golden\n--- got ---\n%s\n--- want ---\n%s", got, wantC.String())
			}
		})
	}
	if *updateGolden && !t.Failed() {
		b, err := json.MarshalIndent(fresh, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d points)", goldenPath, len(fresh))
	}
}
