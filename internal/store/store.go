// Package store is the persistent tier of the result pipeline: a
// ResultStore holds the canonical Results JSON document of every completed
// simulation point, keyed by the point's core.PointFingerprint plus a
// code-version stamp, so a restarted process (or another node of a sweep
// cluster) replays an identical sweep entirely from durable state instead
// of recomputing it.
//
// DiskStore, the implementation, writes content-addressed files
// (sha256/<hh>/<hash>.json) plus a small per-key index, with atomic
// rename-on-write, hash re-verification on every read, quarantine of
// corrupted files, and large observability artifacts (timelines, Perfetto
// traces, divergence dumps) spilled to a sibling blob directory.
//
// The store only persists documents that provably round-trip: Encode
// re-hydrates its own output and requires byte equality before anything is
// written. Results carrying process-lifetime artifacts (a live Timeline or
// TraceWriter ring) do not round-trip through their summary JSON form;
// such entries are recorded artifacts-only — their exports land in the
// blob directory, but Get never serves them as a cached result.
//
// internal/sweep.Cache layers its in-memory LRU as tier 1 over a
// ResultStore: misses fall through to the store before simulating, and
// completions write through asynchronously. See Cache.AttachStore.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"srlproc/internal/core"
)

// Key identifies one persisted result: the simulation point's stable
// fingerprint plus the code-version stamp of the binary that produced it.
// The stamp is part of the key, not a filter: a rebuilt binary computes
// under a new stamp and can never be served another build's results, which
// is what makes persisting across restarts sound (the determinism tests
// pin byte-stable output only per build).
type Key struct {
	Fingerprint uint64
	Stamp       string
}

// FingerprintHex renders the fingerprint in the fixed-width hex form used
// by index filenames, the X-Srlproc-Point HTTP header and Entry documents.
func (k Key) FingerprintHex() string { return fmt.Sprintf("%016x", k.Fingerprint) }

// BlobRef names one spilled artifact of an entry.
type BlobRef struct {
	// Name is the artifact's role, e.g. "timeline.csv",
	// "trace.chrome.json" or "divergences.json".
	Name string `json:"name"`
	// Hash is the hex SHA-256 of the blob's content (its address).
	Hash string `json:"hash"`
	Size int64  `json:"size"`
}

// Entry is the index record of one persisted key.
type Entry struct {
	Fingerprint string `json:"fingerprint"` // Key.FingerprintHex
	Stamp       string `json:"stamp"`

	// Suite and Design label the point for humans browsing the store.
	Suite  string `json:"suite,omitempty"`
	Design string `json:"design,omitempty"`

	// Hash and Size address the canonical Results document; both are zero
	// for artifacts-only entries.
	Hash string `json:"hash,omitempty"`
	Size int64  `json:"size,omitempty"`

	// Hydratable reports whether Get can serve this entry as a cached
	// result. False means the run's document did not round-trip (it
	// carried live observability artifacts); its exports are in Blobs.
	Hydratable bool `json:"hydratable"`

	Blobs []BlobRef `json:"blobs,omitempty"`

	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Stats is a point-in-time snapshot of a store's contents and counters.
type Stats struct {
	Entries     int   `json:"entries"`
	Hydratable  int   `json:"hydratable"`
	ResultBytes int64 `json:"result_bytes"`
	BlobBytes   int64 `json:"blob_bytes"`

	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Quarantined uint64 `json:"quarantined"`
	Deletes     uint64 `json:"deletes"`
}

// ResultStore is the persistent result tier.
//
// Get returns the rehydrated result for key, or (nil, false, nil) when the
// store holds nothing servable for it — absent, artifacts-only, written
// under a different stamp, or quarantined as corrupt. Corruption is never
// surfaced to the caller as data or as an error: the offending files are
// quarantined and the point simply recomputes.
//
// Put persists one completed result. Results whose canonical document does
// not round-trip byte-identically are recorded artifacts-only (their
// exports spill to the blob tier); that is not an error.
//
// Implementations are safe for concurrent use.
type ResultStore interface {
	Get(key Key) (*core.Results, bool, error)
	Put(key Key, res *core.Results) (Entry, error)
	Delete(key Key) error
	List() ([]Entry, error)
	Stats() Stats
	Close() error
}

// ErrNotPersistable reports that a result's canonical JSON document does
// not survive an unmarshal/re-marshal round-trip, so persisting it could
// not honour the byte-identical warm-restart guarantee. Results carrying
// live observability artifacts (Timeline, TraceWriter, Divergences) are
// the expected case.
var ErrNotPersistable = errors.New("store: result document does not round-trip")

// Encode renders res as its canonical JSON document and proves the
// document rehydrates byte-identically: unmarshal into a fresh Results,
// re-marshal, compare. Anything Encode accepts is therefore safe to serve
// from the store in place of a fresh simulation. Returns ErrNotPersistable
// (wrapped) when the round-trip fails.
func Encode(res *core.Results) ([]byte, error) {
	doc, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("store: marshal result: %w", err)
	}
	back, err := Decode(doc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotPersistable, err)
	}
	redoc, err := json.Marshal(back)
	if err != nil {
		return nil, fmt.Errorf("%w: re-marshal: %v", ErrNotPersistable, err)
	}
	if !bytes.Equal(doc, redoc) {
		return nil, ErrNotPersistable
	}
	return doc, nil
}

// Decode rehydrates a canonical Results document produced by Encode.
func Decode(doc []byte) (*core.Results, error) {
	res := new(core.Results)
	if err := json.Unmarshal(doc, res); err != nil {
		return nil, err
	}
	return res, nil
}

var (
	codeStampOnce sync.Once
	codeStamp     string
)

// CodeStamp returns this binary's code-version stamp: the main module
// version plus, when the binary was built from a VCS checkout, the
// revision (and a +dirty marker for modified trees). Folding the stamp
// into every store Key means a rebuilt binary starts a fresh keyspace and
// can never serve results persisted by different code — simulator output
// is only guaranteed byte-stable within one build.
func CodeStamp() string {
	codeStampOnce.Do(func() {
		codeStamp = readCodeStamp()
	})
	return codeStamp
}

func readCodeStamp() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	stamp := bi.Main.Version
	if stamp == "" {
		stamp = "(devel)"
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		stamp += "@" + rev + dirty
	}
	return stamp
}
