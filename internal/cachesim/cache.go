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

// line is one cache line's bookkeeping, 32 bytes: the words first, then
// the flags, so the four bools share one word.
type line struct {
	tag   uint64
	ready uint64 // cycle at which the fill completes (0 = long resident)
	// Speculative state for checkpointed store updates (Section 4.3):
	// spec marks a line holding an uncommitted store's data; specCkpt is the
	// checkpoint that owns the speculative version (only one version of a
	// block is allowed). specTemp additionally marks a *temporary* update —
	// an independent store's pre-redo write in the §6.5 "use the data cache
	// for forwarding" variant — which is discarded when the redo begins.
	specCkpt int
	valid    bool
	dirty    bool
	spec     bool
	specTemp bool
}

// Cache is one set-associative, write-back, write-allocate cache level with
// LRU replacement.
type Cache struct {
	name string
	// lines holds every set in one array: set si is the span set(si)
	// returns, its fill[si] resident lines from lines[si*assoc], ordered
	// MRU-first. A set fills to assoc lines and never shrinks (an
	// invalidated line keeps its way until it is evicted).
	lines    []line
	fill     []uint32
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
	// 1's L1 at every checkpoint commit.
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

// Misses returns the raw miss count; Writebacks the dirty evictions.
func (c *Cache) Misses() uint64     { return c.misses }
func (c *Cache) Writebacks() uint64 { return c.wbacks }

func (c *Cache) setIdx(addr uint64) uint64 {
	return (addr / isa.CacheLineSize) & c.setMask
}

func (c *Cache) tag(addr uint64) uint64 { return addr >> c.tagShift }

// set returns set si's resident lines, MRU-first: a span of the one array.
func (c *Cache) set(si uint64) []line {
	lo := si * uint64(c.assoc)
	return c.lines[lo : lo+uint64(c.fill[si])]
}

// lineAddr rebuilds the address of the line with tag in set si.
func (c *Cache) lineAddr(tag, si uint64) uint64 {
	return tag<<c.tagShift | si*isa.CacheLineSize
}

// Lookup probes for addr's line. On a hit it refreshes LRU and returns the
// cycle the data is available (max of now+latency and the line's fill
// ready time). It does not allocate.
func (c *Cache) Lookup(cycle, addr uint64) (hit bool, ready uint64) {
	si := c.setIdx(addr)
	tag := c.tag(addr)
	set := c.set(si)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			l := set[i]
			copy(set[1:i+1], set[:i]) // move to MRU
			set[0] = l
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

// Contains reports presence without touching LRU or counters.
func (c *Cache) Contains(addr uint64) bool {
	tag := c.tag(addr)
	set := c.set(c.setIdx(addr))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
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
	si := c.setIdx(addr)
	tag := c.tag(addr)
	set := c.set(si)
	// Already present (e.g. racing fills): just update.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = set[i].dirty || dirty
			if set[i].ready < readyAt {
				set[i].ready = readyAt
			}
			return Evicted{}
		}
	}
	nl := line{tag: tag, valid: true, dirty: dirty, ready: readyAt, specCkpt: -1}
	if len(set) < c.assoc {
		c.fill[si]++
		set = c.set(si)
		copy(set[1:], set[:len(set)-1])
		set[0] = nl
		return Evicted{}
	}
	victim := set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = nl
	ev := Evicted{Valid: victim.valid, Dirty: victim.dirty}
	if victim.valid {
		ev.Addr = c.lineAddr(victim.tag, si)
		if victim.dirty {
			c.wbacks++
		}
	}
	return ev
}

// MarkDirty sets the dirty bit on addr's line if present.
func (c *Cache) MarkDirty(addr uint64) {
	tag := c.tag(addr)
	set := c.set(c.setIdx(addr))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			return
		}
	}
}

// Invalidate drops addr's line, returning whether it was present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	tag := c.tag(addr)
	set := c.set(c.setIdx(addr))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			d := set[i].dirty
			set[i].valid = false
			return true, d
		}
	}
	return false, false
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
	tag := c.tag(addr)
	set := c.set(c.setIdx(addr))
	for i := range set {
		if !set[i].valid || set[i].tag != tag {
			continue
		}
		if set[i].spec && set[i].specCkpt != ckpt {
			return SpecWriteResult{Present: true, Conflict: true, OwnerCkpt: set[i].specCkpt, OwnerTemp: set[i].specTemp}
		}
		res := SpecWriteResult{Present: true}
		if set[i].dirty && !set[i].spec {
			// Write the committed dirty data back before overwriting it
			// speculatively, so discarding the update cannot lose it.
			res.NeededWriteback = true
			c.wbacks++
			set[i].dirty = false
		}
		set[i].spec = true
		set[i].specTemp = set[i].specTemp || temp
		set[i].specCkpt = ckpt
		c.anySpec = true
		return res
	}
	return SpecWriteResult{Present: false}
}

// CommitSpec bulk-clears speculative ownership for checkpoint ckpt, marking
// those blocks committed (and dirty, since they hold store data).
func (c *Cache) CommitSpec(ckpt int) (committed int) {
	c.walkSpec(func(l *line, _ uint64) {
		if l.specCkpt == ckpt {
			l.spec = false
			l.specTemp = false
			l.specCkpt = -1
			l.dirty = true
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
	return c.discardSpecIf(func(l *line) bool { return l.specTemp }, drop)
}

// DiscardSpecFrom invalidates speculative lines owned by checkpoint ids >=
// minCkpt (a checkpoint restart squashing those checkpoints), calling drop
// as DiscardSpecTemp does.
func (c *Cache) DiscardSpecFrom(minCkpt int, drop func(addr uint64)) int {
	return c.discardSpecIf(func(l *line) bool { return l.specCkpt >= minCkpt }, drop)
}

func (c *Cache) discardSpecIf(pred func(*line) bool, drop func(addr uint64)) (n int) {
	c.walkSpec(func(l *line, si uint64) {
		if pred(l) {
			drop(c.lineAddr(l.tag, si))
			l.valid = false
			l.spec = false
			l.specTemp = false
			l.specCkpt = -1
			n++
		}
	})
	return n
}

// walkSpec calls fn on every valid speculative line with its set index,
// then recomputes anySpec from what fn left speculative. It returns at
// once when anySpec proves there is no such line.
func (c *Cache) walkSpec(fn func(l *line, si uint64)) {
	if !c.anySpec {
		return
	}
	c.anySpec = false
	for si := range c.fill {
		set := c.set(uint64(si))
		for i := range set {
			l := &set[i]
			if l.valid && l.spec {
				fn(l, uint64(si))
				c.anySpec = c.anySpec || (l.valid && l.spec)
			}
		}
	}
}

// HasTempSpec reports whether addr's line is resident and holds a
// temporary (pre-redo) speculative update — the §6.5 variant's forwarding
// source.
func (c *Cache) HasTempSpec(addr uint64) bool {
	tag := c.tag(addr)
	set := c.set(c.setIdx(addr))
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			return l.spec && l.specTemp
		}
	}
	return false
}
