package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// EventKind is a typed pipeline event the trace hook records.
type EventKind uint8

const (
	// EvCheckpointCreate: a new CPR checkpoint opened (Arg = checkpoint id).
	EvCheckpointCreate EventKind = iota
	// EvCheckpointCommit: a checkpoint bulk-committed (Arg = checkpoint id).
	EvCheckpointCommit
	// EvRestart: execution rolled back to a checkpoint (Arg = checkpoint id).
	EvRestart
	// EvMissReturn: a long-latency miss's data returned (Arg = address).
	EvMissReturn
	// EvRedoStart: the SRL began draining — store redo mode entered.
	EvRedoStart
	// EvRedoEnd: the SRL drained empty — store redo mode left.
	EvRedoEnd
	// EvMemDepViolation: a store exposed a memory ordering violation
	// against an executed younger load (Arg = address).
	EvMemDepViolation
	// EvSnoopViolation: an external snoop hit the load buffer (Arg = address).
	EvSnoopViolation
	// EvOverflowViolation: a load-buffer set overflow forced a violation
	// restart (Arg = address).
	EvOverflowViolation
	// EvBranchMispredict: a mispredicted branch resolved (Arg = PC).
	EvBranchMispredict
	// EvDivergence: the differential oracle detected a disagreement with
	// the reference memory system (Arg = address).
	EvDivergence

	numEventKinds
)

var eventNames = [numEventKinds]string{
	EvCheckpointCreate:  "ckpt-create",
	EvCheckpointCommit:  "ckpt-commit",
	EvRestart:           "restart",
	EvMissReturn:        "miss-return",
	EvRedoStart:         "redo-start",
	EvRedoEnd:           "redo-end",
	EvMemDepViolation:   "memdep-violation",
	EvSnoopViolation:    "snoop-violation",
	EvOverflowViolation: "overflow-violation",
	EvBranchMispredict:  "branch-mispredict",
	EvDivergence:        "divergence",
}

// eventCats groups kinds into Chrome trace categories so Perfetto's track
// filter separates checkpointing, the miss/redo machinery and violations.
var eventCats = [numEventKinds]string{
	EvCheckpointCreate:  "ckpt",
	EvCheckpointCommit:  "ckpt",
	EvRestart:           "recovery",
	EvMissReturn:        "miss",
	EvRedoStart:         "redo",
	EvRedoEnd:           "redo",
	EvMemDepViolation:   "violation",
	EvSnoopViolation:    "violation",
	EvOverflowViolation: "violation",
	EvBranchMispredict:  "recovery",
	EvDivergence:        "violation",
}

// String returns the event kind's stable name.
func (k EventKind) String() string {
	if k < numEventKinds {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// MarshalText renders the kind by name, so JSON documents name it instead
// of emitting its enum value.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one recorded pipeline event. Arg is kind-specific: a checkpoint
// id, an address, or a PC (see the EventKind docs).
type Event struct {
	Cycle uint64    `json:"cycle"`
	Kind  EventKind `json:"kind"`
	Arg   uint64    `json:"arg"`
}

// TraceWriter collects typed pipeline events up to a bounded count. The
// zero value is not usable; construct with NewTraceWriter (or through
// Config.NewTraceWriter). It is not safe for concurrent use — each
// simulated core owns its own trace.
type TraceWriter struct {
	events  []Event
	cap     int
	dropped int
	byKind  [numEventKinds]uint64
}

// NewTraceWriter creates a trace bounded to cap events (DefaultTraceCap if
// cap <= 0).
func NewTraceWriter(cap int) *TraceWriter {
	if cap <= 0 {
		cap = DefaultTraceCap
	}
	return &TraceWriter{cap: cap}
}

// Record appends one event; once the cap is reached further events are
// counted as dropped (per-kind totals keep counting).
func (t *TraceWriter) Record(cycle uint64, kind EventKind, arg uint64) {
	t.byKind[kind]++
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{Cycle: cycle, Kind: kind, Arg: arg})
}

// Len returns the number of retained events.
func (t *TraceWriter) Len() int { return len(t.events) }

// Dropped returns how many events the cap discarded.
func (t *TraceWriter) Dropped() int { return t.dropped }

// Count returns how many events of the given kind were recorded
// (including any dropped past the cap).
func (t *TraceWriter) Count(kind EventKind) uint64 { return t.byKind[kind] }

// Events returns the retained events in record order (a copy).
func (t *TraceWriter) Events() []Event {
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// MarshalJSON summarises the trace (length, drops, per-kind counts) —
// the full event stream is exported with WriteJSONL or WriteChromeTrace,
// not embedded in every Results document.
func (t *TraceWriter) MarshalJSON() ([]byte, error) {
	byKind := make(map[string]uint64, numEventKinds)
	for k, n := range t.byKind {
		if n > 0 {
			byKind[EventKind(k).String()] = n
		}
	}
	return json.Marshal(struct {
		Events  int               `json:"events"`
		Dropped int               `json:"dropped"`
		ByKind  map[string]uint64 `json:"byKind"`
	}{len(t.events), t.dropped, byKind})
}

// WriteJSONL renders one Event object per line, in record order.
func (t *TraceWriter) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// One simulated cycle maps to one microsecond of trace time.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    uint64            `json:"ts"`
	Dur   uint64            `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

// WriteChromeTrace renders the trace in Chrome trace-event format so it
// opens directly in chrome://tracing or https://ui.perfetto.dev. Instant
// events land on one track; EvRedoStart/EvRedoEnd pairs become duration
// slices on a second track; if timeline is non-nil its occupancy and IPC
// series are added as counter tracks.
func (t *TraceWriter) WriteChromeTrace(w io.Writer, timeline *Timeline) error {
	var evs []chromeEvent
	var redoStart uint64
	redoOpen := false
	for _, e := range t.events {
		switch e.Kind {
		case EvRedoStart:
			redoStart, redoOpen = e.Cycle, true
		case EvRedoEnd:
			if redoOpen {
				dur := e.Cycle - redoStart
				if dur == 0 {
					dur = 1
				}
				evs = append(evs, chromeEvent{
					Name: "redo-drain", Cat: "redo", Phase: "X",
					TS: redoStart, Dur: dur, PID: 0, TID: 1,
				})
				redoOpen = false
			}
		default:
			evs = append(evs, chromeEvent{
				Name: e.Kind.String(), Cat: eventCats[e.Kind], Phase: "i",
				TS: e.Cycle, PID: 0, TID: 0, Scope: "t",
				Args: map[string]uint64{"arg": e.Arg},
			})
		}
	}
	if redoOpen {
		// Run ended mid-redo; close the slice at the last event's cycle.
		end := redoStart + 1
		if n := len(t.events); n > 0 && t.events[n-1].Cycle > redoStart {
			end = t.events[n-1].Cycle
		}
		evs = append(evs, chromeEvent{
			Name: "redo-drain", Cat: "redo", Phase: "X",
			TS: redoStart, Dur: end - redoStart, PID: 0, TID: 1,
		})
	}
	if timeline != nil {
		for _, s := range timeline.Samples() {
			evs = append(evs, chromeEvent{
				Name: "occupancy", Cat: "timeline", Phase: "C", TS: s.Cycle, PID: 0,
				Args: map[string]uint64{
					"srl":     uint64(s.SRLOcc),
					"stq":     uint64(s.STQOcc),
					"loadbuf": uint64(s.LoadBufOcc),
					"window":  uint64(s.WindowOcc),
				},
			})
			evs = append(evs, chromeEvent{
				Name: "ipc-x100", Cat: "timeline", Phase: "C", TS: s.Cycle, PID: 0,
				Args: map[string]uint64{"ipc_x100": uint64(s.IPC * 100)},
			})
		}
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       struct {
			TimeUnit string `json:"timeUnit"`
		} `json:"otherData"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"}
	doc.OtherData.TimeUnit = "1 cycle = 1us"
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}
