package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"srlproc/internal/core"
)

// DiskStore is the durable ResultStore. Layout under the root:
//
//	index/<stamp-digest>/<fingerprint>.json   one Entry per key
//	sha256/<hh>/<hash>.json                   content-addressed Results documents
//	blobs/sha256/<hh>/<hash>-<name>           spilled observability artifacts
//	quarantine/                               files that failed hash or decode checks
//
// Every file lands via write-to-temp + fsync + atomic rename, so a crash
// mid-write leaves at most a stale .tmp- file (swept on Open), never a
// half-written document. Reads re-hash the content file and re-verify the
// decode; any mismatch moves the file to quarantine/ and reports a miss, so
// corruption is repaired by recomputation rather than surfaced as data.
type DiskStore struct {
	root string

	mu      sync.Mutex
	hits    uint64
	misses  uint64
	puts    uint64
	quar    uint64
	deletes uint64
}

// OpenDisk opens (creating if needed) a disk store rooted at dir. Stale
// temporary files left by a crashed writer are removed.
func OpenDisk(dir string) (*DiskStore, error) {
	for _, sub := range []string{"index", "sha256", filepath.Join("blobs", "sha256"), "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	s := &DiskStore{root: dir}
	if err := s.sweepTemp(); err != nil {
		return nil, err
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *DiskStore) Root() string { return s.root }

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

// indexPath returns the Entry file for key. The stamp is folded in as a
// short digest directory (stamps hold VCS revisions and +dirty markers that
// do not belong in filenames verbatim).
func (s *DiskStore) indexPath(key Key) string {
	sum := sha256.Sum256([]byte(key.Stamp))
	return filepath.Join(s.root, "index", hex.EncodeToString(sum[:])[:12], key.FingerprintHex()+".json")
}

func (s *DiskStore) contentPath(hash string) string {
	return filepath.Join(s.root, "sha256", hash[:2], hash+".json")
}

func (s *DiskStore) blobPath(ref BlobRef) string {
	return filepath.Join(s.root, "blobs", "sha256", ref.Hash[:2], ref.Hash+"-"+ref.Name)
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

// quarantine moves a failed file aside (never deleting evidence) and counts
// it. Renaming into quarantine/ keeps this atomic too.
func (s *DiskStore) quarantine(path, reason string) {
	dst := filepath.Join(s.root, "quarantine",
		fmt.Sprintf("%d-%s", time.Now().UnixNano(), filepath.Base(path)))
	if err := os.Rename(path, dst); err != nil {
		// Fall back to removal so the bad file cannot be served again.
		os.Remove(path)
	}
	s.mu.Lock()
	s.quar++
	s.mu.Unlock()
	_ = reason
}

func (s *DiskStore) countMiss() { s.mu.Lock(); s.misses++; s.mu.Unlock() }

// Get implements ResultStore. The content file is re-hashed and re-decoded
// on every read; a file that fails either check is quarantined, its index
// entry removed, and the call reports a clean miss.
func (s *DiskStore) Get(key Key) (*core.Results, bool, error) {
	ipath := s.indexPath(key)
	idoc, err := os.ReadFile(ipath)
	if err != nil {
		if os.IsNotExist(err) {
			s.countMiss()
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: read index: %w", err)
	}
	var e Entry
	if err := json.Unmarshal(idoc, &e); err != nil || e.Stamp != key.Stamp {
		s.quarantine(ipath, "index decode/stamp mismatch")
		s.countMiss()
		return nil, false, nil
	}
	if !e.Hydratable || e.Hash == "" {
		s.countMiss()
		return nil, false, nil
	}
	cpath := s.contentPath(e.Hash)
	doc, err := os.ReadFile(cpath)
	if err != nil {
		if os.IsNotExist(err) {
			// Index points at missing content: drop the dangling entry.
			os.Remove(ipath)
			s.countMiss()
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: read content: %w", err)
	}
	if hashHex(doc) != e.Hash {
		s.quarantine(cpath, "content hash mismatch")
		os.Remove(ipath)
		s.countMiss()
		return nil, false, nil
	}
	res, err := Decode(doc)
	if err != nil {
		s.quarantine(cpath, "content decode failure")
		os.Remove(ipath)
		s.countMiss()
		return nil, false, nil
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return res, true, nil
}

// Put implements ResultStore. Documents are deduplicated by content hash;
// results that fail the round-trip gate are recorded artifacts-only.
func (s *DiskStore) Put(key Key, res *core.Results) (Entry, error) {
	doc, err := Encode(res)
	if err != nil && !IsNotPersistable(err) {
		return Entry{}, err
	}
	blobs, err := renderBlobs(res)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{
		Fingerprint: key.FingerprintHex(),
		Stamp:       key.Stamp,
		Suite:       res.Suite.String(),
		Design:      res.Design.String(),
		Hydratable:  doc != nil,
		CreatedUnix: time.Now().Unix(),
	}
	if doc != nil {
		e.Hash = hashHex(doc)
		e.Size = int64(len(doc))
		cpath := s.contentPath(e.Hash)
		if _, statErr := os.Stat(cpath); os.IsNotExist(statErr) {
			if err := writeFileAtomic(cpath, doc); err != nil {
				return Entry{}, fmt.Errorf("store: write content: %w", err)
			}
		}
	}
	for name, data := range blobs {
		ref := BlobRef{Name: name, Hash: hashHex(data), Size: int64(len(data))}
		bpath := s.blobPath(ref)
		if _, statErr := os.Stat(bpath); os.IsNotExist(statErr) {
			if err := writeFileAtomic(bpath, data); err != nil {
				return Entry{}, fmt.Errorf("store: write blob %s: %w", name, err)
			}
		}
		e.Blobs = append(e.Blobs, ref)
	}
	sortBlobs(e.Blobs)
	idoc, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return Entry{}, fmt.Errorf("store: marshal index entry: %w", err)
	}
	if err := writeFileAtomic(s.indexPath(key), append(idoc, '\n')); err != nil {
		return Entry{}, fmt.Errorf("store: write index: %w", err)
	}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return e, nil
}

// Delete implements ResultStore. Content files are shared between identical
// documents (and between stamps), so only the key's index entry is removed.
func (s *DiskStore) Delete(key Key) error {
	err := os.Remove(s.indexPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: delete: %w", err)
	}
	s.mu.Lock()
	s.deletes++
	s.mu.Unlock()
	return nil
}

// List implements ResultStore; entries sort by (stamp, fingerprint).
// Unreadable index files are skipped rather than failing the listing.
func (s *DiskStore) List() ([]Entry, error) {
	var out []Entry
	err := filepath.WalkDir(filepath.Join(s.root, "index"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
			return err
		}
		doc, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil
		}
		var e Entry
		if json.Unmarshal(doc, &e) == nil {
			out = append(out, e)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	sortEntries(out)
	return out, nil
}

// Stats implements ResultStore. Sizes come from the index entries, so a
// listing never re-reads content files.
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		Quarantined: s.quar,
		Deletes:     s.deletes,
	}
	s.mu.Unlock()
	entries, err := s.List()
	if err != nil {
		return st
	}
	st.Entries = len(entries)
	seenDoc := make(map[string]bool)
	seenBlob := make(map[string]bool)
	for _, e := range entries {
		if e.Hydratable {
			st.Hydratable++
		}
		if e.Hash != "" && !seenDoc[e.Hash] {
			seenDoc[e.Hash] = true
			st.ResultBytes += e.Size
		}
		for _, b := range e.Blobs {
			if !seenBlob[b.Hash+b.Name] {
				seenBlob[b.Hash+b.Name] = true
				st.BlobBytes += b.Size
			}
		}
	}
	return st
}

// Close implements ResultStore; the disk tier holds no open handles between
// calls, so it is a no-op.
func (s *DiskStore) Close() error { return nil }

// IsNotPersistable reports whether err is the round-trip rejection
// (ErrNotPersistable, possibly wrapped).
func IsNotPersistable(err error) bool { return errors.Is(err, ErrNotPersistable) }

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Stamp != es[j].Stamp {
			return es[i].Stamp < es[j].Stamp
		}
		return es[i].Fingerprint < es[j].Fingerprint
	})
}

func sortBlobs(bs []BlobRef) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
}
