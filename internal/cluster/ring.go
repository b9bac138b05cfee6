package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over worker names. Each member
// contributes `replicas` virtual nodes, placed by FNV-1a of
// "member#replica" passed through splitmix64's finalizer; a point
// fingerprint is owned by the first virtual node clockwise from it. The
// properties the cluster leans on:
//
//   - stability: the same member set always yields the same ring, so a
//     coordinator restart (or a second coordinator) routes every
//     fingerprint to the same worker — each worker's memo cache and
//     persistent store accumulate a stable shard of the keyspace;
//   - minimal disruption: removing a member reassigns only the points it
//     owned; every other shard stays put, keeping caches warm through
//     worker failures;
//   - even shards: raw FNV-1a of names that differ in one character
//     clusters on the ring (w1 owned 97% of the keyspace against w2), so
//     the finalizer spreads each hash over all 64 bits.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted, deduplicated
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultReplicas is the virtual-node count used when NewRing is given
// replicas <= 0. 1024 keeps each member of a two- or three-worker cluster
// within 3 points of an even share (TestRingSharesEven); 64 left shards
// 9 points off even, and 256 still 3.2. A ring is built once per sweep,
// and a lookup is a binary search, so the count costs nothing measurable.
const DefaultReplicas = 1024

// NewRing builds a ring over members (duplicates ignored). An empty
// member set yields a ring whose Owner always reports false.
func NewRing(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{}
	h := fnv.New64a()
	var name []byte
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
		for v := 0; v < replicas; v++ {
			name = strconv.AppendInt(append(append(name[:0], m...), '#'), int64(v), 10)
			h.Reset()
			h.Write(name)
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), member: m})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member // deterministic on (absurdly unlikely) collisions
	})
	return r
}

// mix64 is splitmix64's finalizer: every input bit moves every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Owner returns the member owning fingerprint fp, or ("", false) on an
// empty ring.
func (r *Ring) Owner(fp uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= fp })
	if i == len(r.points) {
		i = 0 // wrap: fp is past the highest virtual node
	}
	return r.points[i].member, true
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}
