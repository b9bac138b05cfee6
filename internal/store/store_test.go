package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
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
func simulate(t testing.TB, cfg core.Config, suite trace.Suite) *core.Results {
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
		if len(e.Hash) != 64 || e.Size != int64(len(want)) {
			t.Fatalf("entry %+v does not describe the %d-byte document", e, len(want))
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
// summary JSON form, so its artifacts stay with the run that made them:
// Put refuses it with ErrNotPersistable and writes nothing.
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
		if _, err := s.Put(key, res); !IsNotPersistable(err) {
			t.Fatalf("Put must refuse an observed result, got %v", err)
		}
		if _, err := os.Stat(s.path(key)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("a refused result left a file: %v", err)
		}
		if _, ok, err := s.Get(key); err != nil || ok {
			t.Fatalf("refused result must not hydrate: ok=%v err=%v", ok, err)
		}
		if st := s.Stats(); st.Puts != 0 || st.Entries != 0 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

// TestDivergentResultNotPersistable: a checked run's divergences name
// their kinds, and a kind has no text decoder, so a document carrying them
// fails Encode's round trip and the store refuses it.
func TestDivergentResultNotPersistable(t *testing.T) {
	res := simulate(t, tinyCfg(core.DesignSRL, 43), trace.PROD)
	res.Divergences = []oracle.Divergence{{Kind: oracle.KindForwardAge, Cycle: 7}}
	res.DivergenceCount = 1
	if _, err := Encode(res); !IsNotPersistable(err) {
		t.Fatalf("a result carrying divergences must fail the round-trip gate, got %v", err)
	}
}

// TestDiskCorruptionQuarantined: a flipped byte in a stored file must be
// detected by the read-side digest check, the file moved to quarantine/,
// and the Get reported as a clean miss — corruption is repaired by
// recomputation, never served. The flipped byte is a digit of a number,
// so the document still decodes and only the digest can catch it.
func TestDiskCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg(core.DesignHierarchical, 51)
	res := simulate(t, cfg, trace.WEB)
	key := keyFor(cfg, trace.WEB)
	if _, err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	cpath := s.path(key)
	data, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpath, flipDigit(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("corrupt entry served: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(cpath); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in place")
	}
	quar, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quar) != 1 {
		t.Fatalf("quarantine holds %d files (err=%v), want 1", len(quar), err)
	}
	st := s.Stats()
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats after quarantine: %+v", st)
	}
	// The point transparently recomputes: a fresh Put re-creates the file,
	// and the next Get hits.
	if _, err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); !ok {
		t.Fatal("re-put after quarantine did not hit")
	}
}

// flipDigit returns a copy of a stored file with the first digit of a
// number in its document changed: the document still decodes, and only
// the digest line tells the change apart.
func flipDigit(t testing.TB, data []byte) []byte {
	out := bytes.Clone(data)
	for i := digestLen; i+1 < len(out); i++ {
		if c := out[i+1]; out[i] == ':' && c >= '1' && c <= '9' {
			out[i+1] = '1' + (c-'0')%9
			if _, err := Decode(out[digestLen:]); err != nil {
				t.Fatalf("the flipped document does not decode: %v", err)
			}
			return out
		}
	}
	t.Fatal("no number in the stored document")
	return nil
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
	if err := os.Truncate(s.path(key), e.Size/2); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("truncated entry served: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); !ok {
		t.Fatal("re-put after quarantine did not hit")
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
	// Simulate a crash mid-write: half a file under a temp name beside
	// the committed one and in another stamp's directory.
	for _, p := range []string{
		filepath.Join(filepath.Dir(s.path(key)), ".tmp-1234"),
		filepath.Join(dir, "deadbeef0000", ".tmp-5678"),
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

// TestOneFilePerKey: N puts of distinct results leave exactly N regular
// files, all in one stamp directory, and Stats counts them — corrupt or
// not — from the directory listing alone, quarantining nothing.
func TestOneFilePerKey(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var total int64
	for i := 0; i < n; i++ {
		cfg := tinyCfg(core.DesignBaseline, uint64(90+i))
		if _, err := s.Put(keyFor(cfg, trace.WEB), simulate(t, cfg, trace.WEB)); err != nil {
			t.Fatal(err)
		}
	}
	var files []string
	dirs := map[string]bool{}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			dirs[rel] = true
			return nil
		}
		if !d.Type().IsRegular() {
			t.Errorf("%s is not a regular file", rel)
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		files = append(files, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stampDir := filepath.Dir(s.path(keyFor(tinyCfg(core.DesignBaseline, 90), trace.WEB)))
	rel, _ := filepath.Rel(dir, stampDir)
	if len(files) != n || len(dirs) != 3 || !dirs["."] || !dirs[quarantineDir] || !dirs[rel] {
		t.Fatalf("files %v in directories %v, want %d files in %s", files, dirs, n, rel)
	}
	if st := s.Stats(); st.Entries != n || st.ResultBytes != total || st.Puts != n {
		t.Fatalf("stats %+v, want %d entries of %d bytes", st, n, total)
	}
	for _, f := range files {
		if err := os.Truncate(f, 10); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != n || st.ResultBytes != 10*n || st.Quarantined != 0 {
		t.Fatalf("stats over corrupt files: %+v", st)
	}
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

// FuzzDiskGet writes arbitrary bytes as one key's stored file and reads
// the key back. Get must never panic or fail, and must answer either the
// decoded document of a file whose digest line matches it, or a miss that
// moved the file, bytes intact, to quarantine/.
func FuzzDiskGet(f *testing.F) {
	cfg := tinyCfg(core.DesignSRL, 131)
	key := keyFor(cfg, trace.WEB)
	seed, err := OpenDisk(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seed.Put(key, simulate(f, cfg, trace.WEB)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:digestLen])
	f.Add(flipped)
	f.Add(flipDigit(f, valid))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := s.path(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		digestOK := len(data) >= digestLen && data[digestLen-1] == '\n' &&
			hashHex(data[digestLen:]) == string(data[:digestLen-1])
		st := s.Stats()
		if ok {
			if res == nil || !digestOK || st.Hits != 1 || st.Quarantined != 0 {
				t.Fatalf("hit with res=%v digest ok=%v stats %+v", res != nil, digestOK, st)
			}
			return
		}
		if digestOK {
			if _, err := Decode(data[digestLen:]); err == nil {
				t.Fatal("a file with a matching digest and a decodable document missed")
			}
		}
		if st.Misses != 1 || st.Quarantined != 1 || st.Entries != 0 {
			t.Fatalf("miss stats %+v, want one miss that quarantined the file", st)
		}
		quar, err := os.ReadDir(filepath.Join(dir, quarantineDir))
		if err != nil || len(quar) != 1 {
			t.Fatalf("quarantine holds %d files (err=%v), want 1", len(quar), err)
		}
		if kept, err := os.ReadFile(filepath.Join(dir, quarantineDir, quar[0].Name())); err != nil || !bytes.Equal(kept, data) {
			t.Fatalf("quarantined file differs from the stored bytes (err=%v)", err)
		}
	})
}

// hashHex returns the hex SHA-256 of data.
func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
