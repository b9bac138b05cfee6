package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"srlproc/internal/cachesim"
	"srlproc/internal/trace"
)

// geometryFields are the Config fields FuzzConfig varies: every sizing
// and port count a structure constructor or the pipeline's resource
// accounting depends on, and every latency the pipeline adds to the cycle
// count, the memory hierarchy's under Mem. Their order is the fuzz input's
// byte order; a field added at the end leaves saved corpus entries their
// meaning.
var geometryFields = []string{
	"STQSize", "L1STQSize", "L2STQSize", "MTBSize", "LQSize", "LoadBufAssoc",
	"LCFSize", "LCFCounterBits", "FCAssoc", "StoreSetsSize",
	"SchedInt", "SchedFP", "SchedMem", "IntRegs", "FPRegs", "LoadPorts", "StorePorts",
	"Mem.L1Assoc", "Mem.L2Assoc", "Mem.MSHRs", "Mem.PrefetchN", "Mem.PrefetchD",
	"L1STQLatency", "L2STQLatency", "MispredictPenalty",
	"Mem.L1Latency", "Mem.L2Latency", "Mem.MemLatency", "Mem.FarLatency", "Mem.FarDegradedLatency",
}

// geometryRow is one configuration change: design's defaults with field
// set to value.
type geometryRow struct {
	design StoreDesign
	field  string
	value  int
}

// invalidGeometry holds one row per Validate rule on geometry. Without its
// rule, each row panics in a constructor or wedges the pipeline (a
// NoProgressError), except the LCF counter width: 9 bits and more silently
// mean 8, and 0 bits never lets a data-ready store into the SRL.
var invalidGeometry = []geometryRow{
	{DesignBaseline, "LoadPorts", 0},
	{DesignSRL, "StorePorts", 0},
	{DesignSRL, "SchedMem", 2},
	{DesignBaseline, "IntRegs", 4},
	{DesignBaseline, "StoreSetsSize", 0},
	{DesignHierarchical, "LQSize", 0},
	{DesignBaseline, "STQSize", 0},
	{DesignSRL, "L1STQSize", 0},
	{DesignHierarchical, "MTBSize", 1000},
	{DesignFilteredSTQ, "MTBSize", 0},
	{DesignHierarchical, "L2STQSize", -1},
	{DesignSRL, "LCFSize", 0},
	{DesignSRL, "LCFCounterBits", 9},
	{DesignSRL, "FCAssoc", 3},
	{DesignSRL, "LoadBufAssoc", 3},
	{DesignBaseline, "Mem.L1Assoc", 0},
	{DesignSRL, "Mem.L2Assoc", 3},
	{DesignHierarchical, "Mem.MSHRs", 0},
	{DesignBaseline, "Mem.PrefetchN", 0},
	{DesignSRL, "Mem.PrefetchD", -1},
	{DesignSRL, "Mem.L1Latency", poisonThreshold + 1},
}

// oversizedGeometry holds one row per upper bound of Validate, at the
// bound. Every queue, table and cache, the window and the checkpoint file
// are allocated whole when a core is built, so without its bound a large
// enough value asks for more memory than the host can map. Validate must
// accept the bound and reject the field's next larger value of the same
// shape: one more, or twice as much where the field must be a power of two
// or make a power-of-two set count. The values are out of the fuzz
// encoding's reach, so these rows do not seed FuzzConfig.
var oversizedGeometry = []struct {
	geometryRow
	pow2 bool
}{
	{geometryRow{DesignLargeSTQ, "STQSize", maxQueueEntries}, false},
	{geometryRow{DesignSRL, "L1STQSize", maxQueueEntries}, false},
	{geometryRow{DesignHierarchical, "L2STQSize", maxQueueEntries}, false},
	{geometryRow{DesignSRL, "SRLSize", maxQueueEntries}, false},
	{geometryRow{DesignBaseline, "LQSize", maxQueueEntries}, false},
	{geometryRow{DesignSRL, "WindowCap", maxWindowCap}, false},
	{geometryRow{DesignFilteredSTQ, "Checkpoints", maxCheckpoints}, false},
	{geometryRow{DesignHierarchical, "MTBSize", maxTableEntries}, true},
	{geometryRow{DesignSRL, "LCFSize", maxTableEntries}, true},
	{geometryRow{DesignBaseline, "StoreSetsSize", maxTableEntries}, true},
	{geometryRow{DesignSRL, "FCSize", maxFCEntries}, true},
	{geometryRow{DesignSRL, "LoadBufVictim", maxVictimEntries}, false},
	{geometryRow{DesignBaseline, "Mem.L1Size", cachesim.MaxCacheBytes}, true},
	{geometryRow{DesignSRL, "Mem.L2Size", cachesim.MaxCacheBytes}, true},
	{geometryRow{DesignSRL, "Mem.MSHRs", cachesim.MaxMSHRs}, false},
	{geometryRow{DesignBaseline, "Mem.PrefetchN", cachesim.MaxPrefetchStreams}, false},
	{geometryRow{DesignSRL, "Mem.PrefetchD", cachesim.MaxPrefetchDepth}, false},
	{geometryRow{DesignBaseline, "L1STQLatency", cachesim.MaxLatency}, false},
	{geometryRow{DesignHierarchical, "L2STQLatency", cachesim.MaxLatency}, false},
	{geometryRow{DesignSRL, "MispredictPenalty", cachesim.MaxLatency}, false},
	{geometryRow{DesignHierarchical, "Mem.L2Latency", cachesim.MaxLatency}, false},
	{geometryRow{DesignSRL, "Mem.MemLatency", cachesim.MaxLatency}, false},
	{geometryRow{DesignBaseline, "Mem.FarLatency", cachesim.MaxLatency}, false},
	{geometryRow{DesignFilteredSTQ, "Mem.FarDegradedLatency", cachesim.MaxLatency}, false},
}

// ignoredGeometry sets fields to values invalidGeometry rejects, on
// designs that do not use them: Validate must accept each.
var ignoredGeometry = []geometryRow{
	{DesignBaseline, "L1STQSize", 0},
	{DesignSRL, "STQSize", 0},
	{DesignLargeSTQ, "MTBSize", 1000},
	{DesignFilteredSTQ, "L2STQSize", -1},
	{DesignHierarchical, "LCFCounterBits", 9},
	{DesignBaseline, "FCAssoc", 3},
	{DesignFilteredSTQ, "LoadBufAssoc", 3},
}

func (r geometryRow) config() Config {
	cfg := DefaultConfig(r.design)
	setGeometry(&cfg, r.field, r.value)
	return cfg
}

func (r geometryRow) String() string { return fmt.Sprintf("%v %s=%d", r.design, r.field, r.value) }

// geometryField finds field in c, following a dotted path into Mem.
func geometryField(c *Config, field string) reflect.Value {
	f := reflect.ValueOf(c).Elem()
	for _, name := range strings.Split(field, ".") {
		f = f.FieldByName(name)
	}
	return f
}

func setGeometry(c *Config, field string, v int) {
	f := geometryField(c, field)
	if f.CanUint() {
		f.SetUint(uint64(max(v, 0)))
	} else {
		f.SetInt(int64(v))
	}
}

func getGeometry(c *Config, field string) int {
	f := geometryField(c, field)
	if f.CanUint() {
		return int(f.Uint())
	}
	return int(f.Int())
}

// decodeGeometry sets geometryFields from data, one byte each; fields past
// the end of data keep their defaults. A byte below 128 moves the field's
// default by -64..63, and a byte from 128 on sets a small value, -8..119,
// where the zero, one and just-above-reserve edges live.
func decodeGeometry(c *Config, data []byte) {
	for i, b := range data[:min(len(data), len(geometryFields))] {
		field := geometryFields[i]
		if b < 128 {
			setGeometry(c, field, getGeometry(c, field)+int(b)-64)
		} else {
			setGeometry(c, field, int(b)-136)
		}
	}
}

// encodeGeometry is decodeGeometry's inverse for one row: the bytes that
// leave every other field at the design's default.
func encodeGeometry(t testing.TB, r geometryRow) []byte {
	def := DefaultConfig(r.design)
	var data []byte
	for _, field := range geometryFields {
		if field != r.field {
			data = append(data, 64)
			continue
		}
		switch d := r.value - getGeometry(&def, field); {
		case d >= -64 && d < 64:
			data = append(data, byte(d+64))
		case r.value >= -8 && r.value < 120:
			data = append(data, byte(r.value+136))
		default:
			t.Fatalf("%v: value out of the fuzz encoding's reach", r)
		}
		return data
	}
	t.Fatalf("%v: not a fuzzed field", r)
	return nil
}

// newCore runs New, turning a panic into an error so a table row names the
// configuration that caused it.
func newCore(cfg Config, suite trace.Suite) (c *Core, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return New(cfg, suite)
}

// TestValidateRejectsUnrunnableGeometry requires New to reject each row of
// invalidGeometry, and each oversized row's next larger value, with an
// error, not a panic; Validate to accept each oversized row's bound
// itself; and New to accept each row of ignoredGeometry, whose field the
// design does not use.
func TestValidateRejectsUnrunnableGeometry(t *testing.T) {
	rejected := slices.Clone(invalidGeometry)
	for _, r := range oversizedGeometry {
		cfg := r.config()
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: at its bound, but Validate failed: %v", r.geometryRow, err)
		}
		over := r.geometryRow
		if over.value++; r.pow2 {
			over.value = 2 * r.value
		}
		rejected = append(rejected, over)
	}
	for _, r := range rejected {
		c, err := newCore(r.config(), trace.SINT2K)
		if c != nil || err == nil {
			t.Errorf("%v: New accepted it", r)
		} else if strings.HasPrefix(err.Error(), "panic:") {
			t.Errorf("%v: New panicked: %v", r, err)
		}
	}
	for _, r := range ignoredGeometry {
		if _, err := newCore(r.config(), trace.SINT2K); err != nil {
			t.Errorf("%v: the design does not use the field, but New failed: %v", r, err)
		}
	}
}

// FuzzConfig decodes fuzz bytes into the geometry fields near their
// defaults, for any design and suite: each input must fail Validate or
// finish a short run. A panic fails the input, and so does a wedge, which
// the lowered progress guard turns into a NoProgressError within a second.
// The invalidGeometry rows seed the corpus.
func FuzzConfig(f *testing.F) {
	defer func(n uint64) { progressGuardIters = n }(progressGuardIters)
	progressGuardIters = 200_000
	f.Add(uint8(DesignSRL), uint8(trace.SFP2K), []byte{})
	for _, r := range append(invalidGeometry, ignoredGeometry...) {
		f.Add(uint8(r.design), uint8(0), encodeGeometry(f, r))
	}
	f.Fuzz(func(t *testing.T, designSel, suiteSel uint8, data []byte) {
		suites := trace.AllSuites()
		cfg := DefaultConfig(allDesigns[int(designSel)%len(allDesigns)])
		suite := suites[int(suiteSel)%len(suites)]
		cfg.WarmupUops, cfg.RunUops = 200, 2000
		decodeGeometry(&cfg, data)
		if cfg.Validate() != nil {
			return
		}
		c, err := newCore(cfg, suite)
		if err != nil {
			t.Fatalf("%v/%v: New failed on a valid config: %v", cfg.Design, suite, err)
		}
		var np *NoProgressError
		if _, err := c.RunContext(context.Background()); errors.As(err, &np) {
			t.Fatalf("%v/%v wedged at cycle %d with geometry %v", cfg.Design, suite, np.Cycle, geometryOf(&cfg))
		} else if err != nil {
			t.Fatalf("%v/%v: %v", cfg.Design, suite, err)
		}
	})
}

func geometryOf(c *Config) map[string]int {
	m := map[string]int{}
	for _, field := range geometryFields {
		m[field] = getGeometry(c, field)
	}
	return m
}
