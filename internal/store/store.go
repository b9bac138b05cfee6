// Package store is the persistent tier of the result pipeline: a
// ResultStore holds the canonical Results JSON document of every completed
// simulation point, keyed by the point's core.PointFingerprint plus a
// code-version stamp, so a restarted process (or another node of a sweep
// cluster) replays an identical sweep entirely from durable state instead
// of recomputing it.
//
// DiskStore, the implementation, writes one file per key: the document's
// SHA-256 on the first line, the document after it. Files land by atomic
// rename, every read re-checks the digest, and a file that fails the check
// is quarantined and read as a miss.
//
// The store only persists documents that provably round-trip: Encode
// re-hydrates its own output and requires byte equality before anything is
// written. Results carrying process-lifetime artifacts (a live Timeline or
// TraceWriter ring, oracle divergences) do not round-trip through their
// summary JSON form; Put refuses them with ErrNotPersistable and writes
// nothing.
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
// by stored file names and the X-Srlproc-Point HTTP header.
func (k Key) FingerprintHex() string { return fmt.Sprintf("%016x", k.Fingerprint) }

// Entry describes the document one Put stored.
type Entry struct {
	Hash string // hex SHA-256 of the document
	Size int64  // the document's length in bytes
}

// Stats is a point-in-time snapshot of a store's contents and counters.
type Stats struct {
	// Entries counts stored files and ResultBytes their total size,
	// under every stamp.
	Entries     int   `json:"entries"`
	ResultBytes int64 `json:"result_bytes"`

	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Quarantined uint64 `json:"quarantined"`
}

// ResultStore is the persistent result tier.
//
// Get returns the rehydrated result for key, or (nil, false, nil) when the
// store holds nothing servable for it — absent, written under a different
// stamp, or quarantined as corrupt. Corruption is never surfaced to the
// caller as data or as an error: the offending file is quarantined and the
// point simply recomputes.
//
// Put persists one completed result. A result whose canonical document
// does not round-trip byte-identically is not written; Put returns
// ErrNotPersistable (wrapped) for it.
//
// Implementations are safe for concurrent use.
type ResultStore interface {
	Get(key Key) (*core.Results, bool, error)
	Put(key Key, res *core.Results) (Entry, error)
	Stats() Stats
	Close() error
}

// ErrNotPersistable reports that a result's canonical JSON document does
// not survive an unmarshal/re-marshal round-trip, so persisting it could
// not honour the byte-identical warm-restart guarantee. Results carrying
// live observability artifacts (Timeline, TraceWriter, Divergences) are
// the expected case.
var ErrNotPersistable = errors.New("store: result document does not round-trip")

// IsNotPersistable reports whether err is the round-trip rejection
// (ErrNotPersistable, possibly wrapped).
func IsNotPersistable(err error) bool { return errors.Is(err, ErrNotPersistable) }

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
