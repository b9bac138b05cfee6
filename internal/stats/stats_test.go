package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]uint64{0, 10, 100})
	h.Observe(0)    // bucket <=0
	h.Observe(5)    // <=10
	h.Observe(10)   // <=10
	h.Observe(50)   // <=100
	h.Observe(1000) // overflow
	bk := h.Buckets()
	want := []uint64{1, 2, 1, 1}
	for i, w := range want {
		if bk[i].Count != w {
			t.Fatalf("bucket %d: got %d want %d", i, bk[i].Count, w)
		}
	}
	if h.Total() != 5 {
		t.Fatalf("total %d", h.Total())
	}
	if h.Max() != 1000 {
		t.Fatalf("max %d", h.Max())
	}
}

func TestHistogramFracAbove(t *testing.T) {
	h := NewHistogram([]uint64{0, 10, 100})
	h.ObserveN(0, 6)
	h.ObserveN(5, 2)
	h.ObserveN(50, 1)
	h.ObserveN(500, 1)
	if got := h.FracAbove(0); got != 0.4 {
		t.Fatalf("FracAbove(0) = %v", got)
	}
	if got := h.FracAbove(10); got != 0.2 {
		t.Fatalf("FracAbove(10) = %v", got)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram([]uint64{5, 3})
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram([]uint64{0, 10})
	h.ObserveN(4, 5)
	h.ObserveN(8, 5)
	if got := h.Mean(); got != 6 {
		t.Fatalf("mean %v", got)
	}
	var empty Histogram
	if empty.Mean() != 0 {
		t.Fatal("empty mean not zero")
	}
}

func TestOccupancyTracker(t *testing.T) {
	o := NewOccupancyTracker()
	o.Set(0, 0)    // empty from cycle 0
	o.Set(100, 50) // occupied (level 50) from 100
	o.Set(300, 0)  // empty from 300
	o.Finish(400)
	if o.TotalCycles() != 400 {
		t.Fatalf("total %d", o.TotalCycles())
	}
	if o.OccupiedCycles() != 200 {
		t.Fatalf("occupied %d", o.OccupiedCycles())
	}
	// All occupied time was at level 50, which is > 0 but <= 64.
	if got := o.FracOccupiedAbove(0); got != 1.0 {
		t.Fatalf("FracOccupiedAbove(0) = %v", got)
	}
	if got := o.FracOccupiedAbove(64); got != 0 {
		t.Fatalf("FracOccupiedAbove(64) = %v", got)
	}
}

func TestOccupancyTrackerDeepLevels(t *testing.T) {
	o := NewOccupancyTracker()
	o.Set(0, 700) // between 512 and 768
	o.Finish(100)
	if got := o.FracOccupiedAbove(512); got != 1.0 {
		t.Fatalf("above 512: %v", got)
	}
	if got := o.FracOccupiedAbove(768); got != 0 {
		t.Fatalf("above 768: %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "Suite", "Value")
	tb.AddRowf("SFP2K", 12.345)
	tb.AddRow("X")
	s := tb.String()
	if !strings.Contains(s, "Title") || !strings.Contains(s, "SFP2K") {
		t.Fatalf("render missing content:\n%s", s)
	}
	if !strings.Contains(s, "12.3") {
		t.Fatalf("float not rendered at paper precision:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
}

func TestHistogramFracAbovePanicsOnNonBound(t *testing.T) {
	h := NewHistogram([]uint64{0, 10, 100})
	defer func() {
		if recover() == nil {
			t.Fatal("FracAbove(7) with bounds {0,10,100} did not panic")
		}
	}()
	h.FracAbove(7)
}

func TestStatsMarshalJSON(t *testing.T) {
	h := NewHistogram([]uint64{0, 10})
	h.Observe(0)
	h.ObserveN(5, 2)
	h.Observe(99)
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var hv struct {
		Total   uint64  `json:"total"`
		Max     uint64  `json:"max"`
		Mean    float64 `json:"mean"`
		Buckets []struct {
			Bound uint64 `json:"bound"`
			Count uint64 `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(b, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Total != 4 || hv.Max != 99 || len(hv.Buckets) != 3 {
		t.Fatalf("histogram JSON = %+v", hv)
	}

	o := NewOccupancyTracker()
	o.Set(0, 100)
	o.Finish(50)
	b, err = json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var ov struct {
		TotalCycles    uint64 `json:"totalCycles"`
		OccupiedCycles uint64 `json:"occupiedCycles"`
	}
	if err := json.Unmarshal(b, &ov); err != nil {
		t.Fatal(err)
	}
	if ov.TotalCycles != 50 || ov.OccupiedCycles != 50 {
		t.Fatalf("occupancy JSON = %+v", ov)
	}
}

// TestAppendersMatchEncodingJSON: the tracker and histogram appenders
// render what encoding/json made of the structs they replaced, byte for
// byte, on tiny, typical and extreme histograms.
func TestAppendersMatchEncodingJSON(t *testing.T) {
	type bucket struct {
		Bound uint64 `json:"bound"`
		Count uint64 `json:"count"`
	}
	type histDoc struct {
		Total   uint64   `json:"total"`
		Max     uint64   `json:"max"`
		Mean    float64  `json:"mean"`
		Buckets []bucket `json:"buckets"`
	}
	type trackerDoc struct {
		TotalCycles    uint64   `json:"totalCycles"`
		OccupiedCycles uint64   `json:"occupiedCycles"`
		Histogram      *histDoc `json:"histogram"`
	}
	former := func(h *Histogram) *histDoc {
		d := &histDoc{Total: h.total, Max: h.max, Mean: h.Mean(), Buckets: []bucket{}}
		for _, b := range h.Buckets() {
			d.Buckets = append(d.Buckets, bucket{b.Bound, b.Count})
		}
		return d
	}

	empty := NewOccupancyTracker()
	typical := NewOccupancyTracker()
	for c, lvl := range []uint64{0, 3, 70, 70, 200, 0, 900, 2000, 5} {
		typical.Set(uint64(c*37), lvl)
	}
	typical.Finish(1000)
	tiny := NewOccupancyTracker() // a mean below 1e-6, spelled with an exponent
	tiny.Set(0, 0)
	tiny.Set(30_000_000, 1)
	tiny.Finish(30_000_001)
	huge := NewOccupancyTracker()
	huge.Set(0, 1<<62)
	huge.Finish(3)
	idle := NewOccupancyTracker()
	idle.Set(0, 0)
	idle.Finish(100)

	for name, o := range map[string]*OccupancyTracker{"empty": empty, "typical": typical, "tiny mean": tiny, "huge": huge, "idle": idle} {
		want, err := json.Marshal(trackerDoc{o.TotalCycles(), o.OccupiedCycles(), former(o.hist)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(o)
		if err != nil || string(got) != string(want) {
			t.Errorf("%s tracker: got %s (%v), want %s", name, got, err, want)
		}
		want, _ = json.Marshal(former(o.hist))
		got, err = o.hist.MarshalJSON()
		if err != nil || string(got) != string(want) {
			t.Errorf("%s histogram: got %s (%v), want %s", name, got, err, want)
		}
	}
	h := NewHistogram(nil) // only the overflow bucket
	h.ObserveN(7, 3)
	want, _ := json.Marshal(former(h))
	if got, _ := h.MarshalJSON(); string(got) != string(want) {
		t.Errorf("bucketless histogram: got %s, want %s", got, want)
	}
}

// TestAppendFloatMatchesEncodingJSON covers both of encoding/json's float
// spellings and the exponent clean-up between them.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, 1, 0.5, 68.00740957871253, 1e-6, 9.99e-7, 1e-7, 3.3e-8, 1.5e-300,
		5e-324, 1e20, 1e21, 1.8e19, 123456789012345678901234.0, math.MaxFloat64, -2.5e-9, -1e21} {
		want, _ := json.Marshal(f)
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, encoding/json spells %s", f, got, want)
		}
	}
}
