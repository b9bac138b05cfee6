package cachesim

import "srlproc/internal/isa"

// StreamPrefetcher is the Table 1 hardware data prefetcher: it tracks up to
// 16 concurrent unit-stride streams of cache-line misses and, once a stream
// is confirmed, runs a configurable distance ahead of the demand stream.
type StreamPrefetcher struct {
	streams []Stream
	depth   int      // lines fetched ahead once confirmed
	out     []uint64 // OnMiss's result, reused by every call
	// log holds the addresses OnMiss trained on, in call order, while
	// recording is set (Hierarchy.RecordTrainings); replay repeats them.
	log       []uint64
	recording bool
}

// Stream is one slot of the stream table. Its fields are unexported; tests
// compare whole values.
type Stream struct {
	lastLine  uint64 // last demand-miss line address seen
	dir       int64  // +64 or -64 bytes
	lru       uint64
	valid     bool
	confirmed bool
}

// NewStreamPrefetcher creates a prefetcher with n stream slots that fetches
// depth lines ahead of a confirmed stream.
func NewStreamPrefetcher(n, depth int) *StreamPrefetcher {
	return &StreamPrefetcher{streams: make([]Stream, n), depth: depth, out: make([]uint64, 0, depth)}
}

// OnMiss observes a demand miss to addr and returns the line addresses to
// prefetch (possibly none). The slice is the prefetcher's own buffer: it is
// valid until the next call. Every call rewrites a stream slot: it extends
// a stream, pairs with one, or takes one.
func (p *StreamPrefetcher) OnMiss(addr uint64, tick uint64) []uint64 {
	if p.recording {
		p.log = append(p.log, addr)
	}
	return p.train(addr, tick)
}

// replay repeats the logged trainings once per cycle for the n cycles from
// first, in logged order, each with its cycle as the tick: the stream table
// then stands as if those cycles had each made the logged misses again. The
// prefetch lines the trainings return are dropped.
func (p *StreamPrefetcher) replay(first, n uint64) {
	for tick := first; tick < first+n; tick++ {
		for _, addr := range p.log {
			p.train(addr, tick)
		}
	}
}

// train is OnMiss without the log.
func (p *StreamPrefetcher) train(addr uint64, tick uint64) []uint64 {
	la := isa.LineAddr(addr)
	const ls = int64(isa.CacheLineSize)

	// Look for a stream this miss extends.
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		if int64(la)-int64(s.lastLine) == s.dir {
			s.lastLine = la
			s.confirmed = true
			s.lru = tick
			return p.ahead(la, s.dir)
		}
	}
	// Look for a stream to pair with (ascending or descending neighbour)
	// to establish direction.
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid || s.confirmed {
			continue
		}
		delta := int64(la) - int64(s.lastLine)
		if delta == ls || delta == -ls {
			s.dir = delta
			s.lastLine = la
			s.confirmed = true
			s.lru = tick
			return p.ahead(la, s.dir)
		}
	}
	// Allocate a new (unconfirmed) stream in the LRU slot.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range p.streams {
		if !p.streams[i].valid {
			victim = i
			break
		}
		if p.streams[i].lru < oldest {
			oldest = p.streams[i].lru
			victim = i
		}
	}
	p.streams[victim] = Stream{valid: true, lastLine: la, dir: ls, lru: tick}
	return nil
}

// ahead fills the reused buffer with the depth lines past la in direction
// dir, nearest first.
func (p *StreamPrefetcher) ahead(la uint64, dir int64) []uint64 {
	p.out = p.out[:0]
	for d := 1; d <= p.depth; d++ {
		p.out = append(p.out, uint64(int64(la)+dir*int64(d)))
	}
	return p.out
}
