// Package stats collects the histograms and occupancy-time distributions
// the simulator reports, and formats them into the tables and figure series
// the paper's evaluation section uses.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket histogram over non-negative integer samples.
type Histogram struct {
	// Bounds are inclusive upper bounds of each bucket except the last,
	// which is open (> Bounds[len-2]).
	bounds []uint64
	counts []uint64
	total  uint64
	sum    uint64
	max    uint64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds; an implicit overflow bucket is appended.
func NewHistogram(bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must ascend")
		}
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records a sample with weight n (e.g. cycles spent at a value).
func (h *Histogram) ObserveN(v, n uint64) {
	idx := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[idx] += n
	h.total += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
}

// Total returns the total observation weight.
func (h *Histogram) Total() uint64 { return h.total }

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the weighted mean of observations (zero if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// FracAbove returns the fraction of observation weight with value strictly
// greater than bound. Bound must be one of the construction bounds: a
// bucketed histogram cannot split a bucket, so any other bound would
// silently misattribute the samples below it inside that bucket. Passing a
// non-construction bound panics.
func (h *Histogram) FracAbove(bound uint64) float64 {
	found := false
	for _, b := range h.bounds {
		if b == bound {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("stats: FracAbove(%d) is not a construction bound of %v", bound, h.bounds))
	}
	if h.total == 0 {
		return 0
	}
	var above uint64
	for i, b := range h.bounds {
		if b > bound {
			above += h.counts[i]
		}
	}
	above += h.counts[len(h.counts)-1] // overflow bucket
	return float64(above) / float64(h.total)
}

// MarshalJSON renders the histogram as its bucket list plus summary stats.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	type bucket struct {
		Bound uint64 `json:"bound"` // ^uint64(0) renders as 18446744073709551615 (overflow)
		Count uint64 `json:"count"`
	}
	bks := h.Buckets()
	out := make([]bucket, len(bks))
	for i, b := range bks {
		out[i] = bucket{b.Bound, b.Count}
	}
	return json.Marshal(struct {
		Total   uint64   `json:"total"`
		Max     uint64   `json:"max"`
		Mean    float64  `json:"mean"`
		Buckets []bucket `json:"buckets"`
	}{h.total, h.max, h.Mean(), out})
}

// UnmarshalJSON rebuilds the histogram from its MarshalJSON form: bucket
// bounds and counts are explicit in the document; the internal weighted sum
// is recovered from mean*total (exact for any realistic simulation total,
// and the persistent result store verifies full-document round-trips before
// relying on them).
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var doc struct {
		Total   uint64  `json:"total"`
		Max     uint64  `json:"max"`
		Mean    float64 `json:"mean"`
		Buckets []struct {
			Bound uint64 `json:"bound"`
			Count uint64 `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if len(doc.Buckets) < 1 {
		return fmt.Errorf("stats: histogram document has no buckets")
	}
	n := len(doc.Buckets) - 1 // last bucket is the overflow bucket
	if doc.Buckets[n].Bound != ^uint64(0) {
		return fmt.Errorf("stats: histogram document missing overflow bucket")
	}
	bounds := make([]uint64, n)
	counts := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		if i > 0 && doc.Buckets[i].Bound <= doc.Buckets[i-1].Bound {
			return fmt.Errorf("stats: histogram document bounds must ascend")
		}
		bounds[i] = doc.Buckets[i].Bound
		counts[i] = doc.Buckets[i].Count
	}
	counts[n] = doc.Buckets[n].Count
	h.bounds = bounds
	h.counts = counts
	h.total = doc.Total
	h.max = doc.Max
	h.sum = uint64(math.Round(doc.Mean * float64(doc.Total)))
	return nil
}

// Buckets returns (upper-bound, count) pairs; the final pair has bound
// ^uint64(0) for the overflow bucket.
func (h *Histogram) Buckets() []struct {
	Bound uint64
	Count uint64
} {
	out := make([]struct {
		Bound uint64
		Count uint64
	}, len(h.counts))
	for i := range h.bounds {
		out[i].Bound = h.bounds[i]
		out[i].Count = h.counts[i]
	}
	out[len(out)-1].Bound = ^uint64(0)
	out[len(out)-1].Count = h.counts[len(h.counts)-1]
	return out
}

// OccupancyTracker integrates the time (cycles) a structure spends at each
// occupancy level, producing the "percent of occupied time with more than N
// entries" distribution of the paper's Figure 7.
type OccupancyTracker struct {
	hist      *Histogram
	lastLevel uint64
	lastCycle uint64
	started   bool
}

// NewOccupancyTracker creates a tracker with Figure-7 bucket bounds.
func NewOccupancyTracker() *OccupancyTracker {
	return &OccupancyTracker{
		hist: NewHistogram([]uint64{0, 64, 128, 192, 256, 384, 512, 768, 1024}),
	}
}

// Set records that the occupancy changed to level at the given cycle. Time
// since the previous Set accrues to the previous level.
func (o *OccupancyTracker) Set(cycle, level uint64) {
	if o.started && cycle > o.lastCycle {
		o.hist.ObserveN(o.lastLevel, cycle-o.lastCycle)
	}
	o.lastLevel = level
	o.lastCycle = cycle
	o.started = true
}

// Finish flushes time up to endCycle at the current level.
func (o *OccupancyTracker) Finish(endCycle uint64) {
	if o.started && endCycle > o.lastCycle {
		o.hist.ObserveN(o.lastLevel, endCycle-o.lastCycle)
		o.lastCycle = endCycle
	}
}

// OccupiedCycles returns cycles spent with occupancy > 0.
func (o *OccupancyTracker) OccupiedCycles() uint64 {
	var occ uint64
	bk := o.hist.Buckets()
	for i, b := range bk {
		if i == 0 && b.Bound == 0 {
			continue // the v==0 bucket
		}
		occ += b.Count
	}
	return occ
}

// TotalCycles returns all cycles observed.
func (o *OccupancyTracker) TotalCycles() uint64 { return o.hist.Total() }

// FracOccupiedAbove returns, among occupied cycles, the fraction with more
// than n entries. n must be one of Figure 7's thresholds
// (0, 64, 128, 192, 256, 384, 512, 768, 1024).
func (o *OccupancyTracker) FracOccupiedAbove(n uint64) float64 {
	occ := o.OccupiedCycles()
	if occ == 0 {
		return 0
	}
	var above uint64
	for _, b := range o.hist.Buckets() {
		if b.Bound != ^uint64(0) && b.Bound <= n {
			continue
		}
		above += b.Count
	}
	return float64(above) / float64(occ)
}

// MarshalJSON renders the tracker as its occupancy histogram plus the
// occupied-cycle summary.
func (o *OccupancyTracker) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		TotalCycles    uint64     `json:"totalCycles"`
		OccupiedCycles uint64     `json:"occupiedCycles"`
		Histogram      *Histogram `json:"histogram"`
	}{o.TotalCycles(), o.OccupiedCycles(), o.hist})
}

// UnmarshalJSON rebuilds the tracker from its MarshalJSON form. The
// occupied/total summaries are re-derived from the histogram; the
// integration cursor (last level/cycle) is not part of the document, so a
// rehydrated tracker is read-only — exactly how every consumer treats a
// finished run's tracker.
func (o *OccupancyTracker) UnmarshalJSON(data []byte) error {
	var doc struct {
		Histogram *Histogram `json:"histogram"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Histogram == nil {
		return fmt.Errorf("stats: occupancy document has no histogram")
	}
	o.hist = doc.Histogram
	o.lastLevel, o.lastCycle, o.started = 0, 0, false
	return nil
}

// Figure7Thresholds are the x-axis points of the paper's Figure 7.
var Figure7Thresholds = []uint64{0, 64, 128, 192, 256, 384, 512, 768, 1024}
