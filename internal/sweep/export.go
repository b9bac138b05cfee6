package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"srlproc/internal/core"
)

// MarshalJSON renders one point outcome: its label/suite key, cost, and
// the full Results document (with its derived figures) when successful.
func (p *PointResult) MarshalJSON() ([]byte, error) {
	var errStr string
	if p.Err != nil {
		errStr = p.Err.Error()
	}
	return json.Marshal(struct {
		Label      string        `json:"label"`
		Suite      string        `json:"suite"`
		CacheHit   bool          `json:"cacheHit"`
		WallSecs   float64       `json:"wallSecs"`
		UopsPerSec float64       `json:"uopsPerSec"`
		Err        string        `json:"err,omitempty"`
		Results    *core.Results `json:"results,omitempty"`
	}{
		Label:      p.Point.Label,
		Suite:      p.Point.Suite.String(),
		CacheHit:   p.CacheHit,
		WallSecs:   p.Wall.Seconds(),
		UopsPerSec: p.UopsPerSec,
		Err:        errStr,
		Results:    p.Results,
	})
}

// MarshalJSON renders the whole sweep: per-point outcomes plus the
// pool-level metrics (elapsed, cache hit ratio, worker utilization).
func (r *Report) MarshalJSON() ([]byte, error) {
	var errStr string
	if r.Err != nil {
		errStr = r.Err.Error()
	}
	points := make([]*PointResult, len(r.Points))
	for i := range r.Points {
		points[i] = &r.Points[i]
	}
	return json.Marshal(struct {
		Points            []*PointResult `json:"points"`
		ElapsedSecs       float64        `json:"elapsedSecs"`
		CacheHits         int            `json:"cacheHits"`
		CacheHitRatio     float64        `json:"cacheHitRatio"`
		Simulated         int            `json:"simulated"`
		Failed            int            `json:"failed"`
		Workers           int            `json:"workers"`
		WorkerUtilization float64        `json:"workerUtilization"`
		Throughput        float64        `json:"uopsPerSec"`
		Err               string         `json:"err,omitempty"`
	}{
		Points:            points,
		ElapsedSecs:       r.Elapsed.Seconds(),
		CacheHits:         r.CacheHits,
		CacheHitRatio:     r.CacheHitRatio(),
		Simulated:         r.Simulated,
		Failed:            r.Failed,
		Workers:           r.Workers,
		WorkerUtilization: r.WorkerUtilization(),
		Throughput:        r.Throughput(),
		Err:               errStr,
	})
}

// WriteCSV renders the sweep as CSV: one row per point with its key
// figures and cost, in input order.
func (r *Report) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("label,suite,cache_hit,wall_secs,uops_per_sec,cycles,uops,ipc,err\n")
	for i := range r.Points {
		p := &r.Points[i]
		var cycles, uops uint64
		var ipc float64
		if p.Results != nil {
			cycles, uops, ipc = p.Results.Cycles, p.Results.Uops, p.Results.IPC()
		}
		errStr := ""
		if p.Err != nil {
			errStr = CSVQuote(p.Err.Error())
		}
		fmt.Fprintf(bw, "%s,%s,%d,%.3f,%.0f,%d,%d,%.4f,%s\n",
			CSVQuote(p.Point.Label), p.Point.Suite, b2i(p.CacheHit),
			p.Wall.Seconds(), p.UopsPerSec, cycles, uops, ipc, errStr)
	}
	return bw.Flush()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CSVQuote quotes a CSV field only when it needs it (commas, quotes,
// newlines). Every CSV export in the repository quotes through it.
func CSVQuote(s string) string {
	needs := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '"' || c == '\n' || c == '\r' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	return string(append(out, '"'))
}
