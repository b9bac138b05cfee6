package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"srlproc/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

// goldenDigests is one experiment's pinned renderings: the SHA-256 of its
// JSON document, of its CSV text and of its text table.
type goldenDigests struct {
	JSON string `json:"json"`
	CSV  string `json:"csv"`
	Text string `json:"text"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestExperimentGolden pins every experiment's JSON document, CSV and text
// table byte for byte, at 500 warm-up plus 2,000 measured uops a point on
// one worker and a private memo cache. The JSON documents are what
// `experiments -json`, /v1/sweep, cluster documents and the paper
// pipeline's csv/*.json publish. Regenerate with
// `go test ./internal/bench -run TestExperimentGolden -update`.
func TestExperimentGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "golden.json")
	golden := map[string]goldenDigests{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run go test ./internal/bench -run TestExperimentGolden -update): %v", err)
		}
		if err := json.Unmarshal(b, &golden); err != nil {
			t.Fatal(err)
		}
	}
	o := Options{WarmupUops: 500, RunUops: 2_000, Seed: 1, Workers: 1, Cache: sweep.NewCache()}
	fresh := map[string]goldenDigests{}
	for _, id := range AllExperiments() {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			res, err := RunExperiment(context.Background(), id, o)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var csv bytes.Buffer
			if err := res.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			got := goldenDigests{JSON: digest(doc), CSV: digest(csv.Bytes()), Text: digest([]byte(res.String()))}
			fresh[id.String()] = got
			if *updateGolden {
				return
			}
			want, ok := golden[id.String()]
			if !ok {
				t.Fatalf("experiment %s missing from %s (run -update)", id, goldenPath)
			}
			if got != want {
				t.Fatalf("drifted from golden\n got: %+v\nwant: %+v\ndocument: %s", got, want, doc)
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
		t.Logf("rewrote %s (%d experiments)", goldenPath, len(fresh))
	}
}
