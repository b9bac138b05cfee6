package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"srlproc/internal/core"
	"srlproc/internal/obs"
	"srlproc/internal/oracle"
	"srlproc/internal/trace"
)

func tinyCfg(d core.StoreDesign, seed uint64) core.Config {
	cfg := core.DefaultConfig(d)
	cfg.WarmupUops = 500
	cfg.RunUops = 3_000
	cfg.Seed = seed
	return cfg
}

// simulate runs a real (tiny) simulation so the tests exercise the
// round-trip gate against genuine result documents — counters, metric
// sets, occupancy trackers and all.
func simulate(t *testing.T, cfg core.Config, suite trace.Suite) *core.Results {
	t.Helper()
	c, err := core.New(cfg, suite)
	if err != nil {
		t.Fatal(err)
	}
	return c.Run()
}

func keyFor(cfg core.Config, suite trace.Suite) Key {
	return Key{Fingerprint: core.PointFingerprint(cfg, suite), Stamp: CodeStamp()}
}

// openDisk returns a disk store on a fresh temporary directory.
func openDisk(t *testing.T) *DiskStore {
	t.Helper()
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTripAllDesigns proves every design's plain result document
// survives Encode's marshal→unmarshal→re-marshal byte-equality gate. This
// is the foundation of the warm-restart guarantee: anything Encode accepts
// is served from the store in place of a fresh simulation.
func TestRoundTripAllDesigns(t *testing.T) {
	for _, d := range []core.StoreDesign{
		core.DesignBaseline, core.DesignLargeSTQ, core.DesignSRL,
		core.DesignHierarchical, core.DesignFilteredSTQ,
	} {
		res := simulate(t, tinyCfg(d, 11), trace.WEB)
		if _, err := Encode(res); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	cfg := tinyCfg(core.DesignSRL, 21)
	res := simulate(t, cfg, trace.MM)
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s := openDisk(t)
	t.Run("disk", func(t *testing.T) {
		key := keyFor(cfg, trace.MM)
		e, err := s.Put(key, res)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Hydratable || e.Hash == "" {
			t.Fatalf("SRL result should be hydratable: %+v", e)
		}
		back, ok, err := s.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatal("rehydrated result is not byte-identical to the original")
		}
		st := s.Stats()
		if st.Hits != 1 || st.Puts != 1 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

// TestStampFlipMisses pins the code-version guarantee: the same
// fingerprint under a different stamp must miss, so a rebuilt binary never
// serves results persisted by different code.
func TestStampFlipMisses(t *testing.T) {
	cfg := tinyCfg(core.DesignBaseline, 31)
	res := simulate(t, cfg, trace.WS)
	s := openDisk(t)
	t.Run("disk", func(t *testing.T) {
		key := keyFor(cfg, trace.WS)
		if _, err := s.Put(key, res); err != nil {
			t.Fatal(err)
		}
		flipped := key
		flipped.Stamp = key.Stamp + "-other-build"
		if _, ok, err := s.Get(flipped); err != nil || ok {
			t.Fatalf("flipped stamp must miss: ok=%v err=%v", ok, err)
		}
		if _, ok, err := s.Get(key); err != nil || !ok {
			t.Fatalf("original stamp must still hit: ok=%v err=%v", ok, err)
		}
	})
}

// TestObservedResultArtifactsOnly: a result carrying live observability
// state (timeline ring, trace writer) does not round-trip through its
// summary JSON form; the store must record it artifacts-only — blobs
// spilled, never served by Get.
func TestObservedResultArtifactsOnly(t *testing.T) {
	cfg := tinyCfg(core.DesignSRL, 41)
	cfg.Obs = obs.Config{SampleEvery: 256, TraceEvents: true}
	res := simulate(t, cfg, trace.PROD)
	if res.Timeline == nil || res.Trace == nil {
		t.Fatal("observed run produced no artifacts; test fixture is stale")
	}
	if _, err := Encode(res); !IsNotPersistable(err) {
		t.Fatalf("observed result must fail the round-trip gate, got %v", err)
	}
	s := openDisk(t)
	t.Run("disk", func(t *testing.T) {
		key := keyFor(cfg, trace.PROD)
		e, err := s.Put(key, res)
		if err != nil {
			t.Fatal(err)
		}
		if e.Hydratable || e.Hash != "" {
			t.Fatalf("observed entry must be artifacts-only: %+v", e)
		}
		names := make([]string, 0, len(e.Blobs))
		for _, b := range e.Blobs {
			names = append(names, b.Name)
		}
		if got := strings.Join(names, ","); got != "timeline.csv,trace.chrome.json" {
			t.Fatalf("blobs = %q", got)
		}
		if _, ok, err := s.Get(key); err != nil || ok {
			t.Fatalf("artifacts-only entry must not hydrate: ok=%v err=%v", ok, err)
		}
		if st := s.Stats(); st.BlobBytes == 0 || st.Hydratable != 0 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

// TestDivergentResultNotPersistable: a checked run's divergences name
// their kinds, and a kind has no text decoder, so a document carrying them
// fails Encode's round trip and the store keeps it artifacts-only.
func TestDivergentResultNotPersistable(t *testing.T) {
	res := simulate(t, tinyCfg(core.DesignSRL, 43), trace.PROD)
	res.Divergences = []oracle.Divergence{{Kind: oracle.KindForwardAge, Cycle: 7}}
	res.DivergenceCount = 1
	if _, err := Encode(res); !IsNotPersistable(err) {
		t.Fatalf("a result carrying divergences must fail the round-trip gate, got %v", err)
	}
}

// TestDiskCorruptionQuarantined: flipping bytes in a content file must be
// detected by the read-side hash check, the file moved to quarantine/, and
// the Get reported as a clean miss — corruption is repaired by
// recomputation, never served.
func TestDiskCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg(core.DesignHierarchical, 51)
	res := simulate(t, cfg, trace.WEB)
	key := keyFor(cfg, trace.WEB)
	e, err := s.Put(key, res)
	if err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(dir, "sha256", e.Hash[:2], e.Hash+".json")
	doc, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	doc[len(doc)/2] ^= 0xff
	if err := os.WriteFile(cpath, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("corrupt entry served: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(cpath); !os.IsNotExist(err) {
		t.Fatal("corrupt content file still in place")
	}
	quar, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quar) != 1 {
		t.Fatalf("quarantine holds %d files (err=%v), want 1", len(quar), err)
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats after quarantine: %+v", st)
	}
	// The point transparently recomputes: a fresh Put re-creates content
	// and index, and the next Get hits.
	if _, err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); !ok {
		t.Fatal("re-put after quarantine did not hit")
	}
}

// TestDiskTruncatedEntryQuarantined covers the truncation flavour of
// corruption separately from bit flips.
func TestDiskTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg(core.DesignBaseline, 61)
	res := simulate(t, cfg, trace.MM)
	key := keyFor(cfg, trace.MM)
	e, err := s.Put(key, res)
	if err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(dir, "sha256", e.Hash[:2], e.Hash+".json")
	if err := os.Truncate(cpath, e.Size/2); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("truncated entry served: ok=%v err=%v", ok, err)
	}
	if s.Stats().Quarantined != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestDiskCrashSimTempSweep: a writer that dies between CreateTemp and
// rename leaves a .tmp- file; OpenDisk must sweep it, and the store must
// behave as if the interrupted write never happened.
func TestDiskCrashSimTempSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg(core.DesignSRL, 71)
	res := simulate(t, cfg, trace.WS)
	key := keyFor(cfg, trace.WS)
	if _, err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: half a document under a temp name in
	// both the content and index trees.
	for _, p := range []string{
		filepath.Join(dir, "sha256", "ab", ".tmp-1234"),
		filepath.Join(dir, "index", "deadbeef0000", ".tmp-5678"),
	} {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(`{"trunc`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			tmps = append(tmps, path)
		}
		return nil
	})
	if len(tmps) != 0 {
		t.Fatalf("temp files survived reopen: %v", tmps)
	}
	// The committed entry is untouched by the sweep.
	if _, ok, err := reopened.Get(key); err != nil || !ok {
		t.Fatalf("committed entry lost after crash sweep: ok=%v err=%v", ok, err)
	}
}

// TestDiskPersistsAcrossReopen is the store-level warm-restart check: a
// second DiskStore over the same root hydrates what the first one wrote.
func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg(core.DesignFilteredSTQ, 81)
	res := simulate(t, cfg, trace.PROD)
	key := keyFor(cfg, trace.PROD)
	if _, err := s1.Put(key, res); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, ok, err := s2.Get(key)
	if err != nil || !ok {
		t.Fatalf("reopened store missed: ok=%v err=%v", ok, err)
	}
	want, _ := json.Marshal(res)
	got, _ := json.Marshal(back)
	if string(got) != string(want) {
		t.Fatal("reopened store returned different bytes")
	}
}

func TestDeleteAndList(t *testing.T) {
	s := openDisk(t)
	t.Run("disk", func(t *testing.T) {
		var keys []Key
		for i := 0; i < 3; i++ {
			cfg := tinyCfg(core.DesignBaseline, uint64(90+i))
			res := simulate(t, cfg, trace.WEB)
			key := keyFor(cfg, trace.WEB)
			keys = append(keys, key)
			if _, err := s.Put(key, res); err != nil {
				t.Fatal(err)
			}
		}
		if es, _ := s.List(); len(es) != 3 {
			t.Fatalf("list: %d entries, want 3", len(es))
		}
		if err := s.Delete(keys[1]); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(keys[1]); err != nil {
			t.Fatalf("double delete must be a no-op: %v", err)
		}
		es, err := s.List()
		if err != nil || len(es) != 2 {
			t.Fatalf("list after delete: %d entries err=%v", len(es), err)
		}
		for i := 1; i < len(es); i++ {
			if es[i-1].Stamp > es[i].Stamp ||
				(es[i-1].Stamp == es[i].Stamp && es[i-1].Fingerprint >= es[i].Fingerprint) {
				t.Fatalf("list not sorted: %v", es)
			}
		}
		if _, ok, _ := s.Get(keys[1]); ok {
			t.Fatal("deleted key still hits")
		}
	})
}

// TestConcurrentGetPut exercises the store under the race
// detector: concurrent writers and readers over a small keyspace.
func TestConcurrentGetPut(t *testing.T) {
	const points = 4
	cfgs := make([]core.Config, points)
	results := make([]*core.Results, points)
	keys := make([]Key, points)
	for i := range cfgs {
		cfgs[i] = tinyCfg(core.DesignSRL, uint64(100+i))
		results[i] = simulate(t, cfgs[i], trace.MM)
		keys[i] = keyFor(cfgs[i], trace.MM)
	}
	s := openDisk(t)
	t.Run("disk", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					k := (g + i) % points
					if g%2 == 0 {
						if _, err := s.Put(keys[k], results[k]); err != nil {
							t.Error(err)
							return
						}
					} else {
						if _, _, err := s.Get(keys[k]); err != nil {
							t.Error(err)
							return
						}
					}
					if g == 0 && i == 10 {
						s.Stats()
						if _, err := s.List(); err != nil {
							t.Error(err)
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestCodeStampStable: the stamp is per-process stable (two calls agree)
// and non-empty — the key property the warm-restart path relies on, since
// the smoke test restarts the same binary.
func TestCodeStampStable(t *testing.T) {
	a, b := CodeStamp(), CodeStamp()
	if a == "" || a != b {
		t.Fatalf("CodeStamp unstable: %q %q", a, b)
	}
}

func TestKeyFingerprintHex(t *testing.T) {
	k := Key{Fingerprint: 0xabc, Stamp: "s"}
	if got := k.FingerprintHex(); got != "0000000000000abc" {
		t.Fatalf("FingerprintHex = %q", got)
	}
	if len(fmt.Sprintf("%016x", ^uint64(0))) != 16 {
		t.Fatal("fingerprint hex width")
	}
}
