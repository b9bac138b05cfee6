package stats

import (
	"encoding/json"
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
