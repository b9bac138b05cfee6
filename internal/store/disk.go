package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"srlproc/internal/core"
)

// DiskStore is the durable ResultStore. Layout under the root:
//
//	<sha256(stamp)[:12]>/<fingerprint>.json   one file per key
//	quarantine/                               files that failed verification
//
// A stored file is the hex SHA-256 of the result document, a newline, and
// the document. It lands via write-to-temp + fsync + atomic rename, so a
// crash mid-write leaves at most a stale .tmp- file (swept on Open), never
// a half-written file. Every read re-checks the digest and the decode; a
// file that fails either moves to quarantine/ and reads as a miss, so
// corruption is repaired by recomputation rather than surfaced as data.
type DiskStore struct {
	root string

	mu     sync.Mutex
	hits   uint64
	misses uint64
	puts   uint64
	quar   uint64
}

const quarantineDir = "quarantine"

// digestLen is the length of a stored file's first line: the document's
// hex SHA-256 and a newline.
const digestLen = 2*sha256.Size + 1

// digestLine returns the first line of doc's stored file.
func digestLine(doc []byte) (line [digestLen]byte) {
	sum := sha256.Sum256(doc)
	hex.Encode(line[:], sum[:])
	line[digestLen-1] = '\n'
	return line
}

// OpenDisk opens (creating if needed) a disk store rooted at dir. Stale
// temporary files left by a crashed writer are removed.
func OpenDisk(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &DiskStore{root: dir}
	if err := s.sweepTemp(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepTemp removes .tmp- files abandoned by a writer that crashed between
// CreateTemp and rename.
func (s *DiskStore) sweepTemp() error {
	return filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			if rmErr := os.Remove(path); rmErr != nil {
				return fmt.Errorf("store: sweep %s: %w", path, rmErr)
			}
		}
		return nil
	})
}

// path returns key's file. The stamp is folded in as a short digest
// directory (stamps hold VCS revisions and +dirty markers that do not
// belong in filenames verbatim).
func (s *DiskStore) path(key Key) string {
	sum := sha256.Sum256([]byte(key.Stamp))
	return filepath.Join(s.root, hex.EncodeToString(sum[:6]), key.FingerprintHex()+".json")
}

// writeFileAtomic writes data to path via a sibling temp file, fsync and
// rename, creating parent directories as needed.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// quarantine moves a failed file aside (never deleting evidence) and
// counts it, and the Get that found it as a miss. Renaming into
// quarantine/ keeps this atomic too.
func (s *DiskStore) quarantine(path string) {
	dst := filepath.Join(s.root, quarantineDir,
		fmt.Sprintf("%d-%s", time.Now().UnixNano(), filepath.Base(path)))
	if err := os.Rename(path, dst); err != nil {
		// Fall back to removal so the bad file cannot be served again.
		os.Remove(path)
	}
	s.mu.Lock()
	s.quar++
	s.misses++
	s.mu.Unlock()
}

func (s *DiskStore) count(n *uint64) {
	s.mu.Lock()
	*n++
	s.mu.Unlock()
}

// Get implements ResultStore. The file's digest and decode are re-checked
// on every read; a file that fails either is quarantined and the call
// reports a clean miss.
func (s *DiskStore) Get(key Key) (*core.Results, bool, error) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.count(&s.misses)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", key.FingerprintHex(), err)
	}
	res, ok := unpack(data)
	if !ok {
		s.quarantine(path)
		return nil, false, nil
	}
	s.count(&s.hits)
	return res, true, nil
}

// unpack checks a stored file's digest line against its document and
// decodes the document; ok is false when either fails.
func unpack(data []byte) (res *core.Results, ok bool) {
	if len(data) < digestLen {
		return nil, false
	}
	doc := data[digestLen:]
	if line := digestLine(doc); !bytes.Equal(line[:], data[:digestLen]) {
		return nil, false
	}
	res, err := Decode(doc)
	return res, err == nil
}

// Put implements ResultStore: one file, the digest line and the document,
// written atomically. A result Encode rejects writes nothing and returns
// its ErrNotPersistable.
func (s *DiskStore) Put(key Key, res *core.Results) (Entry, error) {
	doc, err := Encode(res)
	if err != nil {
		return Entry{}, err
	}
	line := digestLine(doc)
	if err := writeFileAtomic(s.path(key), append(line[:], doc...)); err != nil {
		return Entry{}, fmt.Errorf("store: write %s: %w", key.FingerprintHex(), err)
	}
	s.count(&s.puts)
	return Entry{Hash: string(line[:digestLen-1]), Size: int64(len(doc))}, nil
}

// Stats implements ResultStore. Entries and bytes come from one walk of
// the stamp directories that opens no stored file; directories of other
// layouts hold no file at that depth and count nothing.
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	st := Stats{Hits: s.hits, Misses: s.misses, Puts: s.puts, Quarantined: s.quar}
	s.mu.Unlock()
	stamps, _ := os.ReadDir(s.root) // an unreadable root counts no entries
	for _, sd := range stamps {
		if !sd.IsDir() || sd.Name() == quarantineDir {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(s.root, sd.Name()))
		for _, f := range files {
			if !f.Type().IsRegular() || !strings.HasSuffix(f.Name(), ".json") {
				continue
			}
			// A file quarantined since the listing has no info and is
			// no longer an entry.
			if info, err := f.Info(); err == nil {
				st.Entries++
				st.ResultBytes += info.Size()
			}
		}
	}
	return st
}

// Close implements ResultStore; the disk tier holds no open handles between
// calls, so it is a no-op.
func (s *DiskStore) Close() error { return nil }
