package cachesim

import "srlproc/internal/isa"

// StreamPrefetcher is the Table 1 hardware data prefetcher: it tracks up to
// 16 concurrent unit-stride streams of cache-line misses and, once a stream
// is confirmed, runs a configurable distance ahead of the demand stream.
type StreamPrefetcher struct {
	streams []stream
	depth   int    // lines fetched ahead once confirmed
	trains  uint64 // OnMiss calls, each of which rewrites a stream slot
}

type stream struct {
	valid     bool
	lastLine  uint64 // last demand-miss line address seen
	dir       int64  // +64 or -64 bytes
	confirmed bool
	lru       uint64
}

// NewStreamPrefetcher creates a prefetcher with n stream slots that fetches
// depth lines ahead of a confirmed stream.
func NewStreamPrefetcher(n, depth int) *StreamPrefetcher {
	return &StreamPrefetcher{streams: make([]stream, n), depth: depth}
}

// OnMiss observes a demand miss to addr and returns the line addresses to
// prefetch (possibly none).
func (p *StreamPrefetcher) OnMiss(addr uint64, tick uint64) []uint64 {
	p.trains++
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
			out := make([]uint64, 0, p.depth)
			for d := 1; d <= p.depth; d++ {
				out = append(out, uint64(int64(la)+s.dir*int64(d)))
			}
			return out
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
			out := make([]uint64, 0, p.depth)
			for d := 1; d <= p.depth; d++ {
				out = append(out, uint64(int64(la)+s.dir*int64(d)))
			}
			return out
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
	p.streams[victim] = stream{valid: true, lastLine: la, dir: ls, lru: tick}
	return nil
}
