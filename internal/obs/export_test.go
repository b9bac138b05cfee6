package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture builds a small deterministic timeline + trace pair exercising
// every export path: warmup and measured samples, a redo episode, an
// unmatched redo-start, and each instant event kind.
func fixture() (*Timeline, *TraceWriter) {
	tl := NewTimeline(1000, 8)
	tl.Append(Sample{
		Cycle: 1000, Measuring: false, Uops: 900, IPC: 0.9,
		SRLOcc: 3, STQOcc: 12, LoadBufOcc: 40, WindowOcc: 300, SDBOcc: 0, Ckpts: 4,
		OutstandingMisses: 0, RedoActive: false,
		Stalls:   StallBreakdown{STQ: 10, Sched: 5},
		Forwards: ForwardMix{L1STQ: 30},
		Restarts: 1,
	})
	tl.Append(Sample{
		Cycle: 2000, Measuring: true, Uops: 200, IPC: 0.2,
		SRLOcc: 150, STQOcc: 48, L2STQOcc: 7, LoadBufOcc: 600, WindowOcc: 2000, SDBOcc: 90, Ckpts: 8,
		OutstandingMisses: 3, RedoActive: true,
		Stalls:   StallBreakdown{STQ: 400, LQ: 2, Regs: 80, Ckpt: 9, Window: 100, SDB: 4},
		Forwards: ForwardMix{L1STQ: 12, FC: 44, Indexed: 5},
		Restarts: 0,
	})

	tr := NewTraceWriter(64)
	tr.Record(100, EvCheckpointCreate, 1)
	tr.Record(900, EvBranchMispredict, 0x4010)
	tr.Record(950, EvRestart, 1)
	tr.Record(1200, EvMissReturn, 0x8000_0040)
	tr.Record(1200, EvRedoStart, 150)
	tr.Record(1450, EvMemDepViolation, 0x8000_0080)
	tr.Record(1500, EvRedoEnd, 0)
	tr.Record(1600, EvCheckpointCommit, 1)
	tr.Record(1700, EvSnoopViolation, 0x8000_00c0)
	tr.Record(1800, EvOverflowViolation, 0x8000_0100)
	tr.Record(1900, EvRedoStart, 80) // left open: exporter must close it
	return tl, tr
}

// checkGolden compares got against testdata/<name>, rewriting with
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/obs -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestTimelineCSVGolden(t *testing.T) {
	tl, _ := fixture()
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline.csv", buf.Bytes())
}

func TestTimelineJSONGolden(t *testing.T) {
	tl, _ := fixture()
	got, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline.json", append(got, '\n'))
	// And it must round-trip as generic JSON.
	var doc struct {
		SampleEvery uint64 `json:"sampleEvery"`
		Samples     []Sample
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SampleEvery != 1000 || len(doc.Samples) != 2 {
		t.Fatalf("round-trip = %+v", doc)
	}
}

func TestTraceJSONLGolden(t *testing.T) {
	_, tr := fixture()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.jsonl", buf.Bytes())
}

func TestChromeTraceGolden(t *testing.T) {
	tl, tr := fixture()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.chrome.json", buf.Bytes())
	// The document must parse and use the trace-event envelope.
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var slices, instants, counters int
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			slices++
		case "i":
			instants++
		case "C":
			counters++
		}
	}
	// One closed redo pair + one open redo closed by the exporter; 8
	// non-redo events; 2 samples x 2 counter tracks.
	if slices != 2 || instants != 8 || counters != 4 {
		t.Fatalf("chrome trace shape: slices=%d instants=%d counters=%d", slices, instants, counters)
	}
}

func TestMetricSetJSON(t *testing.T) {
	var s MetricSet
	s.Inc(MetricSnoopsInjected)
	s.Add(MetricSRLDrainWaitWAR, 42)
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["snoops_injected"] != 1 || m["srl_drain_wait_war"] != 42 {
		t.Fatalf("metric set JSON = %v", m)
	}
}

// TestMetricSetJSONMatchesFormer: the appender renders what the fmt-built
// form it replaced did, for an empty, a sparse and a full set.
func TestMetricSetJSONMatchesFormer(t *testing.T) {
	former := func(s *MetricSet) string {
		var b strings.Builder
		b.WriteByte('{')
		first := true
		for _, m := range s.NonZero() {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%q:%d", m.String(), s[m])
		}
		b.WriteByte('}')
		return b.String()
	}
	var empty, sparse, full MetricSet
	sparse.Add(MetricCyclesSRLNonEmpty, 1<<63)
	sparse.Inc(MetricLoadsBlockedOnSync)
	for i := range full {
		full[i] = uint64(i)*977 + 1
	}
	for name, s := range map[string]*MetricSet{"empty": &empty, "sparse": &sparse, "full": &full} {
		got, err := s.MarshalJSON()
		if err != nil || string(got) != former(s) {
			t.Errorf("%s: got %s (%v), want %s", name, got, err, former(s))
		}
		var back MetricSet
		if err := json.Unmarshal(got, &back); err != nil || back != *s {
			t.Errorf("%s did not round-trip: %v", name, err)
		}
	}
}

func TestTimelineRingEviction(t *testing.T) {
	tl := NewTimeline(10, 3)
	for i := uint64(1); i <= 5; i++ {
		tl.Append(Sample{Cycle: i * 10})
	}
	if tl.Len() != 3 || tl.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", tl.Len(), tl.Dropped())
	}
	ss := tl.Samples()
	if ss[0].Cycle != 30 || ss[2].Cycle != 50 {
		t.Fatalf("ring order = %+v", ss)
	}
	if tl.Last().Cycle != 50 {
		t.Fatalf("last = %+v", tl.Last())
	}
}

func TestTraceCap(t *testing.T) {
	tr := NewTraceWriter(2)
	for i := 0; i < 5; i++ {
		tr.Record(uint64(i), EvRestart, 0)
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	if tr.Count(EvRestart) != 5 {
		t.Fatalf("byKind count = %d, want 5 (keeps counting past cap)", tr.Count(EvRestart))
	}
}
