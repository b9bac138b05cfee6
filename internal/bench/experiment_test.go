package bench

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func TestExperimentIDNamesRoundTrip(t *testing.T) {
	for _, id := range AllExperiments() {
		text, err := id.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		var back ExperimentID
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if back != id {
			t.Fatalf("%v round-tripped to %v", id, back)
		}
	}
	// JSON embedding uses the same text form.
	doc, err := json.Marshal(map[ExperimentID]int{Fig10: 1})
	if err != nil || string(doc) != `{"fig10":1}` {
		t.Fatalf("map key marshal: %s %v", doc, err)
	}
}

func TestParseExperimentIDAliases(t *testing.T) {
	cases := map[string]ExperimentID{
		"fig2":     Fig2,
		"Figure2":  Fig2,
		"FIGURE10": Fig10,
		"  fig9 ":  Fig9,
		"TABLE3":   Table3,
		"Energy":   Energy,
		"latency":  Latency,
		"Ordering": Ordering,
	}
	for in, want := range cases {
		got, err := ParseExperimentID(in)
		if err != nil || got != want {
			t.Errorf("ParseExperimentID(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseExperimentID("fig11"); err == nil {
		t.Fatal("fig11 parsed")
	}
	if _, err := ParseExperimentID(""); err == nil {
		t.Fatal("empty name parsed")
	}
}

func TestRunExperimentInvalidID(t *testing.T) {
	if _, err := RunExperiment(context.Background(), numExperiments, tinyOptions()); err == nil {
		t.Fatal("invalid id ran")
	}
}

// TestRunExperimentAllIDs is the unified entry point's coverage test:
// every experiment of the evaluation runs through RunExperiment, returns
// the result type its registry entry declares, and its JSON document
// decodes back (DecodeResult) to a byte-identical document — the
// round-trip the paper pipeline and the cluster rely on.
func TestRunExperimentAllIDs(t *testing.T) {
	o := tinyOptions()
	for _, id := range AllExperiments() {
		res, err := RunExperiment(context.Background(), id, o)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if got, want := reflect.TypeOf(res), reflect.TypeOf(experiments[id].result()); got != want {
			t.Fatalf("%v: result is %v, registry declares %v", id, got, want)
		}
		if res.String() == "" {
			t.Fatalf("%v: empty String", id)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		back, err := DecodeResult(id, doc)
		if err != nil {
			t.Fatalf("%v: decode: %v", id, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if string(again) != string(doc) {
			t.Fatalf("%v: decoded document differs from the original", id)
		}
	}
	if _, err := DecodeResult(numExperiments, []byte("{}")); err == nil {
		t.Fatal("invalid id decoded")
	}
}
