// Package cachesim models the baseline memory hierarchy of Table 1: a
// 32KB 3-cycle L1 data cache, a 1MB 8-cycle unified L2, 64-byte lines,
// 100ns memory, a 16-stream hardware prefetcher, and a file of miss status
// holding registers that bounds memory-level parallelism. It also provides
// the per-checkpoint speculative line state that Section 4.3 describes for
// the "use the data cache for temporary updates" design variant evaluated
// in Section 6.5 (Figure 10).
package cachesim

import (
	"fmt"

	"srlproc/internal/isa"
)

// line is one cache line's bookkeeping, 16 bytes: the tag and the four
// flags share key, the flags in its top four bits. A tag is an address
// shifted right by at least 6 (the 64-byte line offset), so a tag's top six
// bits are always zero.
type line struct {
	key   uint64 // tag | lineValid | lineDirty | lineSpec | lineSpecTemp
	ready uint64 // cycle at which the fill completes (0 = long resident)
}

// The flags in line.key. lineSpec and lineSpecTemp are the speculative
// state for checkpointed store updates (Section 4.3): lineSpec marks a line
// holding an uncommitted store's data, whose owner is the checkpoint in the
// cache's owner table (only one version of a block is allowed). lineSpecTemp
// additionally marks a *temporary* update — an independent store's pre-redo
// write in the §6.5 "use the data cache for forwarding" variant — which is
// discarded when the redo begins.
const (
	lineValid    uint64 = 1 << 63
	lineDirty    uint64 = 1 << 62
	lineSpec     uint64 = 1 << 61
	lineSpecTemp uint64 = 1 << 60
	// lineState is the flags a lookup ignores: key&^lineState equals
	// tag|lineValid exactly when the line is valid and holds tag.
	lineState = lineDirty | lineSpec | lineSpecTemp
)

// tag returns the line's tag, its key without the flags.
func (l line) tag() uint64 { return l.key &^ (lineValid | lineState) }

// has reports whether every flag in f is set.
func (l line) has(f uint64) bool { return l.key&f == f }

// Cache is one set-associative, write-back, write-allocate cache level with
// LRU replacement.
type Cache struct {
	name string
	// lines holds every set in one array: set si is the span set(si)
	// returns, its fill[si] resident lines from lines[si*assoc], ordered
	// MRU-first. A set fills to assoc lines and never shrinks (an
	// invalidated line keeps its way until it is evicted).
	lines []line
	fill  []uint32
	// owner is the checkpoint owning each speculative line's version, slot
	// for slot beside lines; a line that is not speculative has no owner
	// and its entry means nothing. Only a cache that takes speculative
	// writes has the table — of the hierarchy's caches only the L1, which
	// NewHierarchy gives one at build; SpecWrite makes one for any other.
	owner    []int
	assoc    int
	setMask  uint64 // set count - 1
	tagShift uint   // log2(line size * set count)
	latency  uint64
	misses   uint64
	wbacks   uint64
	// anySpec is false only when no valid line is speculative. SpecWrite
	// sets it and every bulk walk recomputes it, so CommitSpec and the
	// discards return at once on a cache that holds no speculative data —
	// the common case, which would otherwise walk all 512 lines of Table
	// 1's L1 at every checkpoint commit. While it is false no owner is
	// read, so a line moving within its set leaves its owner behind.
	anySpec bool
}

// NewCache builds a cache of sizeBytes capacity and the given associativity
// and hit latency. sizeBytes/assoc/line must yield a power-of-two set count.
func NewCache(name string, sizeBytes, assoc int, latency uint64) *Cache {
	numSets := sizeBytes / (assoc * isa.CacheLineSize)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s: set count %d not a positive power of two", name, numSets))
	}
	tagShift := uint(0)
	for 1<<tagShift < isa.CacheLineSize*numSets {
		tagShift++
	}
	return &Cache{
		name: name, lines: make([]line, numSets*assoc), fill: make([]uint32, numSets),
		assoc: assoc, setMask: uint64(numSets - 1), tagShift: tagShift, latency: latency,
	}
}

// trackSpec gives the cache its owner table, if it has none yet.
func (c *Cache) trackSpec() {
	if c.owner == nil {
		c.owner = make([]int, len(c.lines))
	}
}

// Misses returns the raw miss count; Writebacks the dirty evictions.
func (c *Cache) Misses() uint64     { return c.misses }
func (c *Cache) Writebacks() uint64 { return c.wbacks }

func (c *Cache) setIdx(addr uint64) uint64 {
	return (addr / isa.CacheLineSize) & c.setMask
}

func (c *Cache) tag(addr uint64) uint64 { return addr >> c.tagShift }

// key returns the key of addr's line while it is valid, ignoring the flags
// in lineState.
func (c *Cache) key(addr uint64) uint64 { return c.tag(addr) | lineValid }

// set returns set si's resident lines, MRU-first: a span of the one array.
func (c *Cache) set(si uint64) []line {
	lo := si * uint64(c.assoc)
	return c.lines[lo : lo+uint64(c.fill[si])]
}

// lineAddr rebuilds the address of the line with tag in set si.
func (c *Cache) lineAddr(tag, si uint64) uint64 {
	return tag<<c.tagShift | si*isa.CacheLineSize
}

// ownerToMRU moves the owner of set si's way i to way 0, shifting the ways
// before it down one, as the set's lines just moved. It is a no-op while
// no line is speculative (the owners mean nothing then).
func (c *Cache) ownerToMRU(si uint64, i int) {
	if !c.anySpec {
		return
	}
	o := c.owner[si*uint64(c.assoc):]
	v := o[i]
	copy(o[1:i+1], o[:i])
	o[0] = v
}

// Lookup probes for addr's line. On a hit it refreshes LRU, dirties the
// line when write is set, and returns the cycle the data is available (max
// of now+latency and the line's fill ready time). It does not allocate.
func (c *Cache) Lookup(cycle, addr uint64, write bool) (hit bool, ready uint64) {
	si := c.setIdx(addr)
	key := c.key(addr)
	set := c.set(si)
	for i := range set {
		if set[i].key&^lineState == key {
			l := set[i]
			if write {
				l.key |= lineDirty
			}
			copy(set[1:i+1], set[:i]) // move to MRU
			set[0] = l
			c.ownerToMRU(si, i)
			r := cycle + c.latency
			if l.ready > r {
				r = l.ready
			}
			return true, r
		}
	}
	c.misses++
	return false, 0
}

// find returns addr's line if it is resident and valid, or nil, without
// touching LRU or counters, and its way in the set.
func (c *Cache) find(addr uint64) (*line, uint64, int) {
	si := c.setIdx(addr)
	key := c.key(addr)
	set := c.set(si)
	for i := range set {
		if set[i].key&^lineState == key {
			return &set[i], si, i
		}
	}
	return nil, si, 0
}

// Contains reports presence without touching LRU or counters.
func (c *Cache) Contains(addr uint64) bool {
	l, _, _ := c.find(addr)
	return l != nil
}

// Evicted describes a line displaced by Insert.
type Evicted struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Insert fills addr's line (MRU position), evicting LRU if needed.
// readyAt is the cycle the fill data arrives; dirty marks an immediate
// write-allocate store.
func (c *Cache) Insert(addr, readyAt uint64, dirty bool) Evicted {
	nl := line{key: c.key(addr), ready: readyAt}
	if dirty {
		nl.key |= lineDirty
	}
	// Already present (e.g. racing fills): just update.
	l, si, _ := c.find(addr)
	if l != nil {
		l.key |= nl.key & lineDirty
		if l.ready < readyAt {
			l.ready = readyAt
		}
		return Evicted{}
	}
	set := c.set(si)
	if len(set) < c.assoc {
		c.fill[si]++
		set = c.set(si)
		copy(set[1:], set[:len(set)-1])
		set[0] = nl
		c.ownerToMRU(si, len(set)-1)
		return Evicted{}
	}
	victim := set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = nl
	c.ownerToMRU(si, len(set)-1)
	ev := Evicted{Valid: victim.has(lineValid), Dirty: victim.has(lineDirty)}
	if ev.Valid {
		ev.Addr = c.lineAddr(victim.tag(), si)
		if ev.Dirty {
			c.wbacks++
		}
	}
	return ev
}

// Invalidate drops addr's line, returning whether it was present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	l, _, _ := c.find(addr)
	if l == nil {
		return false, false
	}
	l.key &^= lineValid
	return true, l.has(lineDirty)
}

// --- speculative (checkpointed) line state, Section 4.3 ---

// SpecWriteResult describes what a speculative store update had to do.
type SpecWriteResult struct {
	// NeededWriteback is true when the target line was dirty and its
	// pre-update contents had to be written back to the next level first
	// (Section 6.5's added latency).
	NeededWriteback bool
	// Conflict is true when another checkpoint already owns a speculative
	// version of this block; the store must stall (only one version of a
	// given cache block is allowed). OwnerCkpt identifies that checkpoint
	// so the caller can resolve conflicts against checkpoints that have
	// since committed or been squashed.
	Conflict  bool
	OwnerCkpt int
	// OwnerTemp is true when the conflicting speculative version is a
	// temporary (pre-redo) update, which the in-order redo supersedes.
	OwnerTemp bool
	// Present is false when the line is not resident at all (the caller
	// must fetch it first).
	Present bool
}

// SpecWrite applies a speculative store update owned by ckpt to addr's
// line, implementing the one-version rule of Section 4.3. temp marks a
// temporary (pre-redo) update that DiscardSpecTemp will drop.
func (c *Cache) SpecWrite(addr uint64, ckpt int, temp bool) SpecWriteResult {
	l, si, i := c.find(addr)
	if l == nil {
		return SpecWriteResult{Present: false}
	}
	c.trackSpec()
	slot := int(si)*c.assoc + i
	if l.has(lineSpec) && c.owner[slot] != ckpt {
		return SpecWriteResult{Present: true, Conflict: true, OwnerCkpt: c.owner[slot], OwnerTemp: l.has(lineSpecTemp)}
	}
	res := SpecWriteResult{Present: true}
	if l.key&(lineDirty|lineSpec) == lineDirty {
		// Write the committed dirty data back before overwriting it
		// speculatively, so discarding the update cannot lose it.
		res.NeededWriteback = true
		c.wbacks++
		l.key &^= lineDirty
	}
	l.key |= lineSpec
	if temp {
		l.key |= lineSpecTemp
	}
	c.owner[slot] = ckpt
	c.anySpec = true
	return res
}

// CommitSpec bulk-clears speculative ownership for checkpoint ckpt, marking
// those blocks committed (and dirty, since they hold store data).
func (c *Cache) CommitSpec(ckpt int) (committed int) {
	c.walkSpec(func(slot int, _ uint64) {
		if c.owner[slot] == ckpt {
			l := &c.lines[slot]
			l.key = l.key&^(lineSpec|lineSpecTemp) | lineDirty
			committed++
		}
	})
	return committed
}

// DiscardSpecTemp invalidates only temporary (pre-redo) speculative lines —
// the redo-phase discard of §6.5; the next access to any such block
// re-misses to the next level, the extra misses the paper describes. It
// calls drop with each invalidated line's address, in walk order (the
// pre-store architectural data still exists at the next level, where the
// caller re-registers it), and returns how many it invalidated.
func (c *Cache) DiscardSpecTemp(drop func(addr uint64)) int {
	return c.discardSpecIf(func(slot int) bool { return c.lines[slot].has(lineSpecTemp) }, drop)
}

// DiscardSpecFrom invalidates speculative lines owned by checkpoint ids >=
// minCkpt (a checkpoint restart squashing those checkpoints), calling drop
// as DiscardSpecTemp does.
func (c *Cache) DiscardSpecFrom(minCkpt int, drop func(addr uint64)) int {
	return c.discardSpecIf(func(slot int) bool { return c.owner[slot] >= minCkpt }, drop)
}

func (c *Cache) discardSpecIf(pred func(slot int) bool, drop func(addr uint64)) (n int) {
	c.walkSpec(func(slot int, si uint64) {
		if pred(slot) {
			l := &c.lines[slot]
			drop(c.lineAddr(l.tag(), si))
			l.key &^= lineValid | lineSpec | lineSpecTemp
			n++
		}
	})
	return n
}

// walkSpec calls fn with the slot and set index of every valid speculative
// line, set by set and MRU-first within a set, then recomputes anySpec from
// what fn left speculative. It returns at once when anySpec proves there is
// no such line.
func (c *Cache) walkSpec(fn func(slot int, si uint64)) {
	if !c.anySpec {
		return
	}
	c.anySpec = false
	for si, n := range c.fill {
		lo := si * c.assoc
		for slot := lo; slot < lo+int(n); slot++ {
			if c.lines[slot].has(lineValid | lineSpec) {
				fn(slot, uint64(si))
				c.anySpec = c.anySpec || c.lines[slot].has(lineValid|lineSpec)
			}
		}
	}
}

// HasTempSpec reports whether addr's line is resident and holds a
// temporary (pre-redo) speculative update — the §6.5 variant's forwarding
// source.
func (c *Cache) HasTempSpec(addr uint64) bool {
	l, _, _ := c.find(addr)
	return l != nil && l.has(lineSpec|lineSpecTemp)
}
