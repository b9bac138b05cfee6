package main

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// recorder keeps the traced round's spans in memory. Span ids start at 1;
// 0 means "no span", and every method of a nil recorder does nothing, so
// untraced rounds call it freely.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	busy  map[int]bool // lanes held by open concurrent spans
}

// span is one timed call. Spans on one lane nest; concurrent spans take
// lanes of their own so that they render side by side.
type span struct {
	name         string
	parent, lane int
	start, end   time.Duration
	ownsLane     bool
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), busy: map[int]bool{}}
}

// begin opens a span on its parent's lane.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lane := 1
	if parent > 0 {
		lane = r.spans[parent-1].lane
	}
	return r.open(span{name: name, parent: parent, lane: lane})
}

// beginLane opens a span that may run beside its siblings, on the lowest
// lane no open span holds.
func (r *recorder) beginLane(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lane := 2
	for r.busy[lane] {
		lane++
	}
	r.busy[lane] = true
	return r.open(span{name: name, parent: parent, lane: lane, ownsLane: true})
}

func (r *recorder) open(s span) int {
	s.start = time.Since(r.t0)
	r.spans = append(r.spans, s)
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.end = time.Since(r.t0)
	if s.ownsLane {
		delete(r.busy, s.lane)
	}
}

// adopt re-parents spans named in kids that were opened under a phase
// rather than a request: each goes to the latest-starting span named
// parent that encloses it, and onto that span's lane. The store cannot tell
// which request called it, and a store read happens right after its
// request arrives, so the latest enclosing request is the caller.
func (r *recorder) adopt(kids []string, parent string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		k := &r.spans[i]
		if !slices.Contains(kids, k.name) {
			continue
		}
		best := -1
		for j, p := range r.spans {
			if p.name == parent && p.start <= k.start && k.end <= p.end &&
				(best < 0 || p.start > r.spans[best].start) {
				best = j
			}
		}
		if best >= 0 {
			k.parent, k.lane = best+1, r.spans[best].lane
		}
	}
}

// spanTotals is one span name's aggregate: calls, wall time, and self time
// (wall time minus the part of it that child spans cover).
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (r *recorder) aggregate() map[string]*spanTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]int{}
	for i, s := range r.spans {
		if s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], i+1)
		}
	}
	out := map[string]*spanTotals{}
	for i, s := range r.spans {
		var iv [][2]time.Duration
		for _, k := range kids[i+1] {
			c := r.spans[k-1]
			if lo, hi := max(c.start, s.start), min(c.end, s.end); lo < hi {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		total := max(0, s.end-s.start)
		agg := out[s.name]
		if agg == nil {
			agg = &spanTotals{}
			out[s.name] = agg
		}
		agg.Count++
		agg.TotalMs += ms(total)
		agg.SelfMs += ms(total - covered(iv))
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
	var n, hi time.Duration
	for _, x := range iv {
		lo := max(x[0], hi)
		if x[1] > lo {
			n += x[1] - lo
		}
		hi = max(hi, x[1])
	}
	return n
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" events with
// their id and parent in args), which Perfetto and chrome://tracing open.
func (r *recorder) writeChrome(path string) error {
	type args struct {
		ID     int `json:"id"`
		Parent int `json:"parent"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.name, Cat: "srlbench", Ph: "X", Ts: us(s.start), Dur: us(max(0, s.end-s.start)),
			Pid: 1, Tid: s.lane, Args: args{ID: i + 1, Parent: s.parent}}
	}
	r.mu.Unlock()
	return writeJSONFile(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
