package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"
)

// digestOf hashes a round's projection lines (label|design|suite|seed|
// cycles,uops,loads,stores,redoneStores,restarts,replayedUops,l1Misses,
// l2Misses,memAccesses), in sorted order so that the seed, which only
// orders the work, cannot change it.
func digestOf(lines []string) string {
	s := slices.Clone(lines)
	slices.Sort(s)
	h := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(h[:])
}

// checkDigest compares a run's digest with the expected file's entry for
// the workload and scale: a mismatch is a failure. With o.update it writes
// the digest instead. It returns a line for the report.
func checkDigest(o *opts, name, digest string, t *tally) (string, error) {
	key := name + "/" + o.scale()
	want, err := loadExpected(o.expected)
	if err != nil {
		return "", err
	}
	switch {
	case o.update:
		want[key] = digest
		if err := writeJSONFile(o.expected, want); err != nil {
			return "", err
		}
		return fmt.Sprintf("digest %.16s written to %s as %s", digest, o.expected, key), nil
	case want[key] == "":
		return fmt.Sprintf("digest %.16s: %s has no entry %s to check it against", digest, o.expected, key), nil
	case want[key] != digest:
		t.fail("output digest %.16s differs from the expected %.16s (%s in %s)", digest, want[key], key, o.expected)
		return fmt.Sprintf("digest %.16s: MISMATCH with %s", digest, key), nil
	}
	return fmt.Sprintf("digest %.16s: matches %s", digest, key), nil
}

// loadExpected reads the expected digests; a missing file holds none.
func loadExpected(path string) (map[string]string, error) {
	m := map[string]string{}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
