package paper

import (
	"bytes"
	"fmt"

	"srlproc/internal/bench"
)

// resultCSV renders the CSV form of one experiment's result document.
// Both execution modes route through here — the in-process runner first
// marshals its typed result to the document, a server run receives the
// document over HTTP — so the CSV artifact is identical by construction
// no matter where the simulation ran, and every run re-proves the
// document round-trips (the same property the persistent store and the
// cluster protocol rely on).
func resultCSV(id bench.ExperimentID, doc []byte) ([]byte, error) {
	r, err := bench.DecodeResult(id, doc)
	if err != nil {
		return nil, fmt.Errorf("paper: decode %s: %w", id, err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
