// Package oracle implements a deliberately simple reference memory system
// that runs in lockstep with the real pipeline (behind core.Config.Check):
// a fully searched program-ordered store record set, a program-ordered load
// record set, and a per-word architectural image built from commits and
// drains. It has no timing, no capacity limits, no hashing and no filters —
// every question is answered by a direct search over program-ordered
// records — which is exactly what makes it a useful differential oracle for
// the CAM-free SRL/LCF/FC/load-buffer machinery: any place the fast path's
// answer differs from the slow obvious one is a divergence.
//
// The simulator is a timing model and carries no data values, so "the load
// got the right value" is checked as "the load's producer store is the one
// a full program-ordered search would pick" (store identity implies value
// identity for a deterministic trace). The oracle distinguishes decisions
// that must be exactly right immediately (forwarding: the producer must be
// the youngest resolved+ready older store to the word) from legitimate
// speculation that the machine is allowed to get wrong as long as detection
// machinery catches it before commit (reading memory past a still-unknown
// or unready store); the latter is checked at commit time instead.
package oracle

import (
	"fmt"

	"srlproc/internal/obs"
)

// ForwardKind identifies the mechanism that supplied a load's data.
type ForwardKind uint8

const (
	// FwdMemory: the load read the data cache / memory (no forwarding).
	FwdMemory ForwardKind = iota
	// FwdL1STQ: forwarded from the L1 store queue CAM search.
	FwdL1STQ
	// FwdL2STQ: forwarded from the hierarchical design's L2 store queue.
	FwdL2STQ
	// FwdFC: forwarded from the Forwarding Cache.
	FwdFC
	// FwdIndexed: indexed forwarding through the LCF's last-index.
	FwdIndexed
	// FwdTempCache: the §6.5 variant's temporary update in the data cache.
	// The design records only the load's nearest store identifier (relative
	// age per line is not kept), so this kind is a documented approximation
	// and is exempt from producer checks; its errors are caught by the load
	// buffer during redo.
	FwdTempCache

	numForwardKinds
)

var forwardNames = [numForwardKinds]string{
	FwdMemory: "memory", FwdL1STQ: "l1stq", FwdL2STQ: "l2stq",
	FwdFC: "fc", FwdIndexed: "indexed", FwdTempCache: "tempcache",
}

// String names the forwarding mechanism.
func (k ForwardKind) String() string {
	if k < numForwardKinds {
		return forwardNames[k]
	}
	return fmt.Sprintf("fwd(%d)", uint8(k))
}

// Kind classifies a divergence between the pipeline and the reference model.
type Kind uint8

const (
	// KindForwardAge: a load forwarded from a store that is not older than
	// it in program order (wrong-data; the seeded FaultInvertFwdAge bug
	// lands here).
	KindForwardAge Kind = iota
	// KindForwardSource: a load forwarded from a store the reference model
	// does not know as resolved+ready (unknown identifier, unresolved
	// address, or data not captured).
	KindForwardSource
	// KindForwardAddr: a load forwarded from a store that writes a
	// different word.
	KindForwardAddr
	// KindForwardStale: a load forwarded from an older store than the
	// youngest resolved+ready older store to the same word — silently stale
	// data that no later check can catch (the younger store's own
	// load-buffer check already ran).
	KindForwardStale
	// KindMemoryStale: a load read memory while a resolved+ready undrained
	// older store to the same word was visible to the design's search
	// machinery (only checked for designs whose structures promise
	// detection at decision time; see Options.StrictMemory).
	KindMemoryStale
	// KindCommitProducer: a load committed with a producer that is not the
	// youngest committed older store to its word (stale forward that every
	// detection net missed).
	KindCommitProducer
	// KindCommitVisibility: a load that read memory committed although the
	// youngest committed older store to its word had not drained to memory
	// before the load's access — the load read the pre-store image and
	// nothing caught it.
	KindCommitVisibility
	// KindCommitMissing: a load committed without a recorded decision.
	KindCommitMissing
	// KindCommitStore: a store committed without resolving its address and
	// data.
	KindCommitStore
	// KindDrainOrder: two drains to the same word happened out of program
	// order (memory image corruption).
	KindDrainOrder
	// KindImageMismatch: end-of-run memory image bookkeeping inconsistent
	// (a drained store the commit image does not dominate, or a revocable
	// drain left behind by a squash).
	KindImageMismatch
	// KindLCFFalseNegative: the loose check filter's counter is zero for a
	// store that is resident (and counted) in the SRL — the "no false
	// negatives" guarantee of Section 4.3 is broken.
	KindLCFFalseNegative
	// KindSRLOrder: SRL residency violates FIFO program order or index
	// contiguity.
	KindSRLOrder
	// KindLoadBufOrder: load-buffer nearest-store identifiers are not
	// monotonic in sequence order.
	KindLoadBufOrder
	// KindWARGate: the SRL head drained although a load older than it in
	// program order had not executed (the write-after-read order tracker
	// opened the gate too early).
	KindWARGate
	// KindSyncOrder: a load performed, or a store drained, past an
	// unperformed older fence or load-acquire (the ordering gate of
	// DESIGN.md §12 failed to hold it; the seeded FaultDropSyncGate bug
	// lands here).
	KindSyncOrder
	// KindFenceOrder: a fence performed while an older load was
	// unperformed, an older store undrained, or an older sync unperformed —
	// the fence's full-barrier obligation was not discharged.
	KindFenceOrder
	// KindReleaseOrder: a store-release drained while an older load was
	// still unperformed (release semantics require all older accesses
	// visible before the release's write becomes visible).
	KindReleaseOrder

	numKinds
)

var kindNames = [numKinds]string{
	KindForwardAge:       "forward-age",
	KindForwardSource:    "forward-source",
	KindForwardAddr:      "forward-addr",
	KindForwardStale:     "forward-stale",
	KindMemoryStale:      "memory-stale",
	KindCommitProducer:   "commit-producer",
	KindCommitVisibility: "commit-visibility",
	KindCommitMissing:    "commit-missing",
	KindCommitStore:      "commit-store",
	KindDrainOrder:       "drain-order",
	KindImageMismatch:    "image-mismatch",
	KindLCFFalseNegative: "lcf-false-negative",
	KindSRLOrder:         "srl-order",
	KindLoadBufOrder:     "loadbuf-order",
	KindWARGate:          "war-gate",
	KindSyncOrder:        "sync-order",
	KindFenceOrder:       "fence-order",
	KindReleaseOrder:     "release-order",
}

// String returns the divergence kind's stable name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText renders the kind by name, so JSON documents name it instead
// of emitting its enum value. Kind has no UnmarshalText: a Results
// document that carries divergences does not decode, so the result store
// keeps checked runs out (store.Encode).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Divergence is one detected disagreement between the pipeline and the
// reference model. Expected/Actual are kind-specific identifiers (store
// identifiers for forwarding kinds, sequence numbers for ordering kinds).
type Divergence struct {
	Kind     Kind   `json:"kind"`
	Cycle    uint64 `json:"cycle"`
	LoadSeq  uint64 `json:"loadSeq,omitempty"`
	StoreSeq uint64 `json:"storeSeq,omitempty"`
	Addr     uint64 `json:"addr,omitempty"`
	Expected uint64 `json:"expected,omitempty"`
	Actual   uint64 `json:"actual,omitempty"`
	Detail   string `json:"detail,omitempty"`
	// Events carries the most recent typed pipeline events before the
	// divergence (restarts, redo episodes, violations), attached by the
	// core's checker for post-mortem context.
	Events []obs.Event `json:"events,omitempty"`
}

// String renders the divergence for logs and test failures.
func (d Divergence) String() string {
	return fmt.Sprintf("%s @cycle %d: load=%d store=%d addr=%#x expected=%d actual=%d (%s)",
		d.Kind, d.Cycle, d.LoadSeq, d.StoreSeq, d.Addr, d.Expected, d.Actual, d.Detail)
}

// Options configures an Oracle.
type Options struct {
	// StrictMemory enables the decision-time memory-staleness check
	// (KindMemoryStale). It must be set only for configurations whose
	// search machinery promises to find every resolved+ready older store
	// at load-issue time: the CAM-searched designs, and the SRL design
	// with the LCF enabled (a zero counter proves absence). Without the
	// LCF the SRL design legitimately lets such loads speculate (FC
	// eviction, discarded temporary updates) and relies on the load
	// buffer to catch them — the commit-time checks still apply.
	StrictMemory bool
	// MaxDivergences bounds the retained divergence list (the count keeps
	// counting past it). Zero means DefaultMaxDivergences.
	MaxDivergences int
	// OnDivergence, when set, is called for each retained divergence
	// before it is stored, so the caller can attach context (the event
	// trace).
	OnDivergence func(*Divergence)
}

// DefaultMaxDivergences bounds retained divergences per run.
const DefaultMaxDivergences = 16

// NoProducer is the producer value of a load that read memory (mirrors
// lsq.NoFwd without importing lsq).
const NoProducer = ^uint64(0)

// storeRec is the reference model's record of one store.
type storeRec struct {
	seq, id   uint64
	addr      uint64
	size      uint8
	resolved  bool // address known to the disambiguation machinery
	ready     bool // data captured (forwardable)
	drained   bool
	drainCyc  uint64
	committed bool
	rel       bool // store-release (DESIGN.md §12)
}

// loadRec is the reference model's record of one load's decision.
type loadRec struct {
	seq      uint64
	addr     uint64
	kind     ForwardKind
	producer uint64
	cycle    uint64 // decision cycle: when the load read its source
}

// wordState is the per-word architectural bookkeeping.
type wordState struct {
	// inflight holds resolved, uncommitted stores to the word (any drain
	// state), in resolution order.
	inflight []*storeRec
	// commit is the youngest committed store to the word.
	commit *storeRec
	// archDrain is the sequence number of the youngest drained committed
	// store (irrevocable); specDrains are drains of still-uncommitted
	// stores, in increasing sequence order, popped from the tail on squash
	// and migrated to archDrain at commit.
	archDrain  uint64
	specDrains []uint64
}

// Oracle is the lockstep reference model. All hooks are synchronous: the
// core calls them at the architectural event they mirror, so the oracle's
// state at a hook is exactly the machine's program-order state at that
// moment. It is not safe for concurrent use — each core owns one.
type Oracle struct {
	strictMemory bool
	maxDivs      int
	onDiv        func(*Divergence)

	stores      map[uint64]*storeRec // by sequence number
	byID        map[uint64]*storeRec // by store identifier
	uncommitted map[uint64]*storeRec // squash working set (by seq)
	loads       map[uint64]*loadRec
	words       map[uint64]*wordState
	specWords   map[uint64]struct{} // words with non-empty specDrains

	// Memory-ordering model (DESIGN.md §12). pendingLoads holds every
	// allocated load that has not yet performed (made its data-source
	// decision); pendingSyncOps holds every allocated unperformed ordering
	// operation — true for a full fence, false for a load-acquire.
	// undrained holds every allocated store whose value has not reached the
	// memory image, committed or not (the fence barrier spans both).
	pendingLoads   map[uint64]struct{}
	pendingSyncOps map[uint64]bool
	undrained      map[uint64]*storeRec

	divs  []Divergence
	count uint64
}

// New builds an oracle.
func New(opts Options) *Oracle {
	if opts.MaxDivergences <= 0 {
		opts.MaxDivergences = DefaultMaxDivergences
	}
	return &Oracle{
		strictMemory:   opts.StrictMemory,
		maxDivs:        opts.MaxDivergences,
		onDiv:          opts.OnDivergence,
		stores:         make(map[uint64]*storeRec),
		byID:           make(map[uint64]*storeRec),
		uncommitted:    make(map[uint64]*storeRec),
		loads:          make(map[uint64]*loadRec),
		words:          make(map[uint64]*wordState),
		specWords:      make(map[uint64]struct{}),
		pendingLoads:   make(map[uint64]struct{}),
		pendingSyncOps: make(map[uint64]bool),
		undrained:      make(map[uint64]*storeRec),
	}
}

func word(addr uint64) uint64 { return addr >> 3 }

func (o *Oracle) wordState(w uint64) *wordState {
	ws := o.words[w]
	if ws == nil {
		ws = &wordState{}
		o.words[w] = ws
	}
	return ws
}

// Report files a divergence (also used by the core-side structure invariant
// sweeps so every divergence flows through one bounded, context-attaching
// path).
func (o *Oracle) Report(d Divergence) {
	o.count++
	if len(o.divs) >= o.maxDivs {
		return
	}
	if o.onDiv != nil {
		o.onDiv(&d)
	}
	o.divs = append(o.divs, d)
}

// Count returns the total number of divergences detected (including any
// past the retention cap).
func (o *Oracle) Count() uint64 { return o.count }

// Divergences returns the retained divergences in detection order.
func (o *Oracle) Divergences() []Divergence { return o.divs }

// StoreAlloc records a store entering the window with its identifier
// (called once per allocation; a replayed store re-enters after Squash
// removed its previous incarnation). rel marks a store-release.
func (o *Oracle) StoreAlloc(cycle, seq, id uint64, rel bool) {
	r := &storeRec{seq: seq, id: id, rel: rel}
	o.stores[seq] = r
	o.byID[id] = r
	o.uncommitted[seq] = r
	o.undrained[seq] = r
}

// LoadAlloc records a load entering the window; acq marks a load-acquire,
// which doubles as an ordering operation younger accesses may not pass.
func (o *Oracle) LoadAlloc(cycle, seq uint64, acq bool) {
	o.pendingLoads[seq] = struct{}{}
	if acq {
		o.pendingSyncOps[seq] = false
	}
}

// FenceAlloc records a full fence entering the window.
func (o *Oracle) FenceAlloc(cycle, seq uint64) {
	o.pendingSyncOps[seq] = true
}

// FencePerformed checks a fence's full-barrier obligation at the moment the
// machine considers it performed: every older load must have performed,
// every older store must have drained out to the memory image, and every
// older ordering operation must itself have performed.
func (o *Oracle) FencePerformed(cycle, seq uint64) {
	delete(o.pendingSyncOps, seq)
	if ls := oldestBelow(o.pendingLoads, seq); ls != 0 {
		o.Report(Divergence{Kind: KindFenceOrder, Cycle: cycle, LoadSeq: ls, StoreSeq: seq,
			Detail: "fence performed past an unperformed older load"})
		return
	}
	var oldest *storeRec
	for ss, r := range o.undrained {
		if ss < seq && (oldest == nil || ss < oldest.seq) {
			oldest = r
		}
	}
	if oldest != nil {
		o.Report(Divergence{Kind: KindFenceOrder, Cycle: cycle, StoreSeq: seq,
			Addr: oldest.addr, Actual: oldest.seq,
			Detail: "fence performed past an undrained older store"})
		return
	}
	if ps := oldestSyncBelow(o.pendingSyncOps, seq); ps != 0 {
		o.Report(Divergence{Kind: KindFenceOrder, Cycle: cycle, StoreSeq: seq, Actual: ps,
			Detail: "fence performed past an unperformed older sync operation"})
	}
}

// oldestBelow returns the smallest key < seq, or 0 when none. Map
// iteration order is randomized, so every ordering check must pick its
// witness deterministically — divergence documents are compared
// byte-for-byte across skip-inverted runs.
func oldestBelow(m map[uint64]struct{}, seq uint64) uint64 {
	best := uint64(0)
	for k := range m {
		if k < seq && (best == 0 || k < best) {
			best = k
		}
	}
	return best
}

func oldestSyncBelow(m map[uint64]bool, seq uint64) uint64 {
	best := uint64(0)
	for k := range m {
		if k < seq && (best == 0 || k < best) {
			best = k
		}
	}
	return best
}

// StoreResolved records a store's address becoming known to the
// disambiguation machinery; ready additionally marks its data captured
// (forwardable). A store may resolve unready first (early address from the
// slice path) and upgrade later.
func (o *Oracle) StoreResolved(cycle, seq, addr uint64, size uint8, ready bool) {
	r := o.stores[seq]
	if r == nil {
		// Tolerate a resolve without alloc rather than crash mid-run; it
		// will surface as a commit-store divergence if real.
		return
	}
	if !r.resolved {
		r.resolved = true
		r.addr, r.size = addr, size
		ws := o.wordState(word(addr))
		ws.inflight = append(ws.inflight, r)
	}
	if ready {
		r.ready = true
	}
}

// StoreDrained records a store's value reaching the memory image (an
// architectural write behind commit, or a speculative redo write from the
// SRL). Per-word drains must follow program order.
func (o *Oracle) StoreDrained(cycle, seq uint64) {
	r := o.stores[seq]
	if r == nil || !r.resolved {
		o.Report(Divergence{Kind: KindDrainOrder, Cycle: cycle, StoreSeq: seq,
			Detail: "drain of unknown or unresolved store"})
		return
	}
	w := word(r.addr)
	ws := o.wordState(w)
	last := ws.archDrain
	if n := len(ws.specDrains); n > 0 {
		last = ws.specDrains[n-1]
	}
	if r.drained || seq <= last {
		o.Report(Divergence{Kind: KindDrainOrder, Cycle: cycle, StoreSeq: seq,
			Addr: r.addr, Expected: last, Actual: seq,
			Detail: "same-word drains out of program order"})
		return
	}
	// Ordering gates (DESIGN.md §12): no store's value may reach the memory
	// image past an unperformed older fence/acquire, and a store-release may
	// not drain while any older load is unperformed.
	if ps := oldestSyncBelow(o.pendingSyncOps, seq); ps != 0 {
		o.Report(Divergence{Kind: KindSyncOrder, Cycle: cycle, StoreSeq: seq,
			Addr: r.addr, Actual: ps,
			Detail: "store drained past an unperformed older sync operation"})
	}
	if r.rel {
		if ls := oldestBelow(o.pendingLoads, seq); ls != 0 {
			o.Report(Divergence{Kind: KindReleaseOrder, Cycle: cycle, LoadSeq: ls,
				StoreSeq: seq, Addr: r.addr,
				Detail: "store-release drained past an unperformed older load"})
		}
	}
	r.drained = true
	r.drainCyc = cycle
	delete(o.undrained, seq)
	if r.committed {
		ws.archDrain = seq
		if ws.commit != r {
			// Superseded committed store: this drain was its last act.
			delete(o.stores, seq)
			delete(o.byID, r.id)
		}
	} else {
		ws.specDrains = append(ws.specDrains, seq)
		o.specWords[w] = struct{}{}
	}
}

// CommitStore records a store becoming architectural. Commits arrive in
// program order (bulk checkpoint commits walk the window in sequence
// order), so the per-word commit image always holds the youngest committed
// store.
func (o *Oracle) CommitStore(cycle, seq uint64) {
	r := o.stores[seq]
	if r == nil || !r.resolved || !r.ready {
		o.Report(Divergence{Kind: KindCommitStore, Cycle: cycle, StoreSeq: seq,
			Detail: "store committed without resolved address and data"})
		if r == nil {
			return
		}
	}
	r.committed = true
	delete(o.uncommitted, seq)
	w := word(r.addr)
	ws := o.wordState(w)
	ws.inflight = removeRec(ws.inflight, r)
	if old := ws.commit; old != nil && old.drained {
		// The replaced commit record has fully retired (drained and
		// superseded); an undrained one must stay reachable for its drain,
		// which may trail commit by many cycles (drain bandwidth).
		delete(o.stores, old.seq)
		delete(o.byID, old.id)
	}
	ws.commit = r
	if r.drained {
		// Its drain (if speculative) becomes irrevocable: drains and
		// commits both follow program order per word, so it is the front.
		if len(ws.specDrains) > 0 && ws.specDrains[0] == seq {
			ws.specDrains = ws.specDrains[1:]
			if len(ws.specDrains) == 0 {
				delete(o.specWords, w)
			}
		}
		if seq > ws.archDrain {
			ws.archDrain = seq
		}
	}
}

// refProducer returns the store a full program-ordered search would forward
// from: the youngest resolved+ready store to the word older than the load
// (committed or not, drained or not — temporary forwarding structures
// legitimately outlive drains), or nil when the load should read memory.
func (o *Oracle) refProducer(ws *wordState, loadSeq uint64) *storeRec {
	var best *storeRec
	for _, r := range ws.inflight {
		if r.ready && r.seq < loadSeq && (best == nil || r.seq > best.seq) {
			best = r
		}
	}
	if best == nil && ws.commit != nil {
		// Committed stores are older than every uncommitted load.
		best = ws.commit
	}
	return best
}

// staleMatch returns a resolved+ready undrained store older than the load,
// if one exists — the witness that a memory read returns pre-store data.
func (o *Oracle) staleMatch(ws *wordState, loadSeq uint64) *storeRec {
	for _, r := range ws.inflight {
		if r.ready && !r.drained && r.seq < loadSeq {
			return r
		}
	}
	if c := ws.commit; c != nil && !c.drained {
		return c
	}
	return nil
}

// LoadDecision records (and checks) a load's data-source decision at the
// moment it reads its source: producer is the forwarding store's identifier
// or NoProducer for a memory read.
func (o *Oracle) LoadDecision(cycle, seq, addr uint64, kind ForwardKind, producer uint64) {
	o.loads[seq] = &loadRec{seq: seq, addr: addr, kind: kind, producer: producer, cycle: cycle}
	// Ordering gate (DESIGN.md §12): a load may not perform past an
	// unperformed older fence or load-acquire. An acquire checking its own
	// decision is excluded by the strict inequality; it stops being pending
	// the moment it performs.
	if ps := oldestSyncBelow(o.pendingSyncOps, seq); ps != 0 {
		o.Report(Divergence{Kind: KindSyncOrder, Cycle: cycle, LoadSeq: seq,
			Addr: addr, Actual: ps,
			Detail: "load performed past an unperformed older sync operation"})
	}
	delete(o.pendingLoads, seq)
	delete(o.pendingSyncOps, seq) // a performed acquire releases its gate
	w := word(addr)
	switch kind {
	case FwdTempCache:
		// Documented approximation (§6.5): exempt.
	case FwdMemory:
		if !o.strictMemory {
			return
		}
		ws := o.words[w]
		if ws == nil {
			return
		}
		if m := o.staleMatch(ws, seq); m != nil {
			o.Report(Divergence{Kind: KindMemoryStale, Cycle: cycle, LoadSeq: seq,
				StoreSeq: m.seq, Addr: addr, Expected: m.id, Actual: NoProducer,
				Detail: "load read memory past a visible matching store"})
		}
	default:
		p := o.byID[producer]
		switch {
		case p == nil || !p.resolved || !p.ready:
			o.Report(Divergence{Kind: KindForwardSource, Cycle: cycle, LoadSeq: seq,
				Addr: addr, Actual: producer,
				Detail: kind.String() + " forward from a store the reference model has no resolved+ready record of"})
		case word(p.addr) != w:
			o.Report(Divergence{Kind: KindForwardAddr, Cycle: cycle, LoadSeq: seq,
				StoreSeq: p.seq, Addr: addr, Expected: word(p.addr), Actual: w,
				Detail: kind.String() + " forward from a store to a different word"})
		case p.seq >= seq:
			o.Report(Divergence{Kind: KindForwardAge, Cycle: cycle, LoadSeq: seq,
				StoreSeq: p.seq, Addr: addr, Expected: seq, Actual: p.seq,
				Detail: kind.String() + " forward from a store not older than the load"})
		default:
			if ref := o.refProducer(o.wordState(w), seq); ref != nil && ref.id != producer {
				o.Report(Divergence{Kind: KindForwardStale, Cycle: cycle, LoadSeq: seq,
					StoreSeq: p.seq, Addr: addr, Expected: ref.id, Actual: producer,
					Detail: kind.String() + " forward skipped a younger resolved+ready older store"})
			}
		}
	}
}

// CommitLoad checks a load against the architectural image as it commits:
// its producer must be the word's youngest committed older store, and a
// memory read requires that store to have drained before the load's access.
func (o *Oracle) CommitLoad(cycle, seq uint64) {
	r := o.loads[seq]
	if r == nil {
		o.Report(Divergence{Kind: KindCommitMissing, Cycle: cycle, LoadSeq: seq,
			Detail: "load committed without a recorded decision"})
		return
	}
	delete(o.loads, seq)
	if r.kind == FwdTempCache {
		return
	}
	ws := o.words[word(r.addr)]
	var expected *storeRec
	if ws != nil {
		expected = ws.commit
	}
	if r.kind == FwdMemory {
		if expected != nil && (!expected.drained || expected.drainCyc > r.cycle) {
			o.Report(Divergence{Kind: KindCommitVisibility, Cycle: cycle, LoadSeq: seq,
				StoreSeq: expected.seq, Addr: r.addr, Expected: expected.id, Actual: NoProducer,
				Detail: "memory load committed before its architectural producer drained"})
		}
		return
	}
	if expected == nil || expected.id != r.producer {
		want := NoProducer
		if expected != nil {
			want = expected.id
		}
		o.Report(Divergence{Kind: KindCommitProducer, Cycle: cycle, LoadSeq: seq,
			Addr: r.addr, Expected: want, Actual: r.producer,
			Detail: r.kind.String() + " load committed with a non-architectural producer"})
	}
}

// Squash discards every record with sequence number >= fromSeq (checkpoint
// restart): loads, uncommitted stores, and their revocable drains.
func (o *Oracle) Squash(fromSeq uint64) {
	for seq, r := range o.uncommitted {
		if seq < fromSeq {
			continue
		}
		if r.resolved {
			ws := o.words[word(r.addr)]
			if ws != nil {
				ws.inflight = removeRec(ws.inflight, r)
			}
		}
		delete(o.stores, seq)
		delete(o.byID, r.id)
		delete(o.uncommitted, seq)
		delete(o.undrained, seq)
	}
	for seq := range o.pendingLoads {
		if seq >= fromSeq {
			delete(o.pendingLoads, seq)
		}
	}
	for seq := range o.pendingSyncOps {
		if seq >= fromSeq {
			delete(o.pendingSyncOps, seq)
		}
	}
	for w := range o.specWords {
		ws := o.words[w]
		sd := ws.specDrains
		for len(sd) > 0 && sd[len(sd)-1] >= fromSeq {
			sd = sd[:len(sd)-1]
		}
		ws.specDrains = sd
		if len(sd) == 0 {
			delete(o.specWords, w)
		}
	}
	for seq := range o.loads {
		if seq >= fromSeq {
			delete(o.loads, seq)
		}
	}
}

// Finish runs the end-of-run image cross-check: the commit image must
// dominate every irrevocable drain, and every remaining revocable drain
// must belong to a live, drained, uncommitted store.
func (o *Oracle) Finish(cycle uint64) {
	for w, ws := range o.words {
		if ws.archDrain > 0 && (ws.commit == nil || ws.commit.seq < ws.archDrain) {
			got := uint64(0)
			if ws.commit != nil {
				got = ws.commit.seq
			}
			o.Report(Divergence{Kind: KindImageMismatch, Cycle: cycle,
				Addr: w << 3, Expected: ws.archDrain, Actual: got,
				Detail: "commit image older than an irrevocable drain"})
		}
		for _, seq := range ws.specDrains {
			r := o.stores[seq]
			if r == nil || !r.drained || r.committed {
				o.Report(Divergence{Kind: KindImageMismatch, Cycle: cycle,
					Addr: w << 3, Actual: seq,
					Detail: "revocable drain with no matching live store"})
			}
		}
	}
}

func removeRec(s []*storeRec, r *storeRec) []*storeRec {
	for i, x := range s {
		if x == r {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
