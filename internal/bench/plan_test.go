package bench

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"srlproc/internal/sweep"
)

// TestExperimentPointsAssembleMatchesRun pins the decomposition contract:
// for every experiment, ExperimentPoints → sweep.Run → AssembleExperiment
// produces a document byte-identical to RunExperiment's. The cluster
// coordinator is exactly this split path with the middle step distributed,
// so this test is the local half of the byte-identity guarantee.
func TestExperimentPointsAssembleMatchesRun(t *testing.T) {
	o := tinyOptions()
	for _, id := range AllExperiments() {
		direct, err := RunExperiment(context.Background(), id, o)
		if err != nil {
			t.Fatalf("%v: direct: %v", id, err)
		}
		points, err := ExperimentPoints(id, o)
		if err != nil {
			t.Fatalf("%v: points: %v", id, err)
		}
		if len(points) == 0 {
			t.Fatalf("%v: empty point list", id)
		}
		rep, err := sweep.Run(context.Background(), points, sweep.Options{Workers: o.Workers})
		if err != nil {
			t.Fatalf("%v: run: %v", id, err)
		}
		split, err := AssembleExperiment(id, o, rep)
		if err != nil {
			t.Fatalf("%v: assemble: %v", id, err)
		}
		want, _ := json.Marshal(direct)
		got, _ := json.Marshal(split)
		if string(got) != string(want) {
			t.Fatalf("%v: split path differs from RunExperiment:\n%s\nvs\n%s", id, got, want)
		}
	}
}

// TestShardedMergeMatchesSingleNode is the cluster correctness core: an
// experiment's points split across disjoint "nodes" (each with a private
// cache, as separate processes would have), run independently, recorded
// at their canonical indexes and assembled — must produce JSON
// byte-identical to the single-node RunExperiment document, with cache
// stats summed across the shards.
func TestShardedMergeMatchesSingleNode(t *testing.T) {
	o := tinyOptions()
	id := Fig6
	single, err := RunExperiment(context.Background(), id, o)
	if err != nil {
		t.Fatal(err)
	}
	points, err := ExperimentPoints(id, o)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	merged := sweep.NewReport(points)
	var simulated, hits int
	for s := 0; s < shards; s++ {
		var mine []sweep.Point
		var at []int
		for i, p := range points {
			if i%shards == s { // interleaved shard assignment, like a hash ring's
				mine = append(mine, p)
				at = append(at, i)
			}
		}
		cache := sweep.NewCache()
		rep, err := sweep.Run(context.Background(), mine, sweep.Options{Cache: cache})
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		stats := cache.Stats()
		if int(stats.Misses) != len(mine) {
			t.Fatalf("shard %d: %d cache misses for %d points", s, stats.Misses, len(mine))
		}
		for k, pr := range rep.Points {
			merged.Record(at[k], pr)
		}
		simulated += rep.Simulated
		hits += rep.CacheHits
	}
	if err := merged.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if merged.Simulated != simulated || merged.CacheHits != hits || merged.Failed != 0 {
		t.Fatalf("merged stats simulated=%d hits=%d failed=%d, want %d/%d/0",
			merged.Simulated, merged.CacheHits, merged.Failed, simulated, hits)
	}
	assembled, err := AssembleExperiment(id, o, merged)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(single)
	got, _ := json.Marshal(assembled)
	if string(got) != string(want) {
		t.Fatalf("sharded document differs from single node:\n%s\nvs\n%s", got, want)
	}
}

func TestAssembleExperimentRejectsBadReports(t *testing.T) {
	o := tinyOptions()
	points, err := ExperimentPoints(Fig7, o)
	if err != nil {
		t.Fatal(err)
	}
	short := &sweep.Report{Points: make([]sweep.PointResult, len(points)-1)}
	if _, err := AssembleExperiment(Fig7, o, short); err == nil || !strings.Contains(err.Error(), "points") {
		t.Fatalf("short report accepted: %v", err)
	}
	// A right-length report whose points never ran must surface the
	// per-point errors, not assemble garbage.
	hole := &sweep.Report{Points: make([]sweep.PointResult, len(points))}
	for i := range hole.Points {
		hole.Points[i].Point = points[i]
	}
	if _, err := AssembleExperiment(Fig7, o, hole); err == nil {
		t.Fatal("report with nil results assembled")
	}
}

// TestExperimentMetadata covers the discoverability surface: every
// experiment carries a description, and every alias resolves back to its
// experiment.
func TestExperimentMetadata(t *testing.T) {
	for _, id := range AllExperiments() {
		if id.Description() == "" {
			t.Errorf("%v: empty description", id)
		}
		for _, alias := range id.Aliases() {
			got, err := ParseExperimentID(alias)
			if err != nil || got != id {
				t.Errorf("alias %q of %v parsed to %v, %v", alias, id, got, err)
			}
		}
	}
	if Fig2.Aliases()[0] != "figure2" {
		t.Fatalf("fig2 aliases = %v", Fig2.Aliases())
	}
	if ExperimentID(-1).Description() != "" || ExperimentID(-1).Aliases() != nil {
		t.Fatal("invalid id has metadata")
	}
}
