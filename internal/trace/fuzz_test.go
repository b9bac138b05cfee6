package trace_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"srlproc/internal/core"
	"srlproc/internal/isa"
	"srlproc/internal/trace"
)

// recordTrace returns n generator micro-ops as a trace file.
func recordTrace(t testing.TB, n uint64) []byte {
	var buf bytes.Buffer
	if err := trace.Record(&buf, trace.NewGenerator(trace.ProfileFor(trace.SINT2K), 1), n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadRecords feeds arbitrary bytes to the .srlt decoder. Whatever
// ReadRecords accepts, NewReader must accept too, and a short simulation
// of it on any store design must finish without a panic or an error:
// the decoder is the boundary that keeps bad records out of the core.
func FuzzReadRecords(f *testing.F) {
	good := recordTrace(f, 64)
	f.Add(good, uint8(core.DesignSRL))
	f.Add(good[:8], uint8(0))       // header only
	f.Add(good[:8+44+13], uint8(1)) // one record and a torn one
	f.Add([]byte("not a trace file"), uint8(2))
	for _, c := range []struct {
		off int
		val byte
	}{
		{8 + 33, 40},  // Src1 past the register file
		{8 + 35, 200}, // Dst negative but not NoReg
		{8 + 32, 99},  // class past the ISA
	} {
		bad := bytes.Clone(good)
		bad[c.off] = c.val
		f.Add(bad, uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, design uint8) {
		uops, err := trace.ReadRecords(bytes.NewReader(data))
		if err != nil || len(uops) == 0 {
			return
		}
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadRecords accepted %d records that NewReader rejects: %v", len(uops), err)
		}
		cfg := core.DefaultConfig(core.StoreDesign(design % 5))
		cfg.WarmupUops = 100
		cfg.RunUops = 400
		c, err := core.NewFromSource(cfg, r, trace.ProfileFor(trace.SINT2K))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if _, err := c.RunContext(ctx); err != nil {
			t.Fatalf("%s on %d records: %v", cfg.Design, len(uops), err)
		}
	})
}

// TestReadRecordsRejectsOutOfRange pins the decoder's checks: a register
// past the register file or a class past the ISA is an error from both
// ReadRecords and NewReader, naming the record, instead of a panic inside
// the simulator.
func TestReadRecordsRejectsOutOfRange(t *testing.T) {
	good := recordTrace(t, 4)
	for _, c := range []struct {
		name string
		off  int
		val  byte
	}{
		{"src1", 33, 40},
		{"src2", 34, isa.NumArchRegs},
		{"dst", 35, 0xfe},
		{"class", 32, byte(isa.NumClasses)},
	} {
		bad := bytes.Clone(good)
		bad[8+2*44+c.off] = c.val // record 2
		if _, err := trace.ReadRecords(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: ReadRecords accepted %d", c.name, c.val)
		} else if want := "trace: record 2: "; !bytes.HasPrefix([]byte(err.Error()), []byte(want)) {
			t.Errorf("%s: error %q does not name the record", c.name, err)
		}
		if _, err := trace.NewReader(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: NewReader accepted %d", c.name, c.val)
		}
	}
	if _, err := trace.ReadRecords(bytes.NewReader(good)); err != nil {
		t.Fatalf("a good trace was rejected: %v", err)
	}
	empty := good[:8]
	if _, err := trace.NewReader(bytes.NewReader(empty)); err == nil {
		t.Error("NewReader accepted a trace with no records")
	}
}
