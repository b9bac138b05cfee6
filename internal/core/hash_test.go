package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"srlproc/internal/trace"
)

// TestFingerprintStableAndSensitive changes each leaf field of Config
// alone, the nested memory-hierarchy and observability configs included,
// and requires a fingerprint no other change produced. EventSkip is the
// exception: a skipped and a stepped run share one fingerprint.
func TestFingerprintStableAndSensitive(t *testing.T) {
	a := DefaultConfig(DesignSRL)
	b := DefaultConfig(DesignSRL)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs hash differently")
	}
	seen := map[uint64]string{a.Fingerprint(): "the default config"}
	leaves := 0
	forEachLeaf(reflect.TypeOf(Config{}), nil, "", func(idx []int, name string) {
		c := DefaultConfig(DesignSRL)
		f := reflect.ValueOf(&c).Elem().FieldByIndex(idx)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 0.25)
		default:
			t.Fatalf("%s: no way to change a %s field", name, f.Kind())
		}
		fp := c.Fingerprint()
		if name == "EventSkip" {
			if fp != a.Fingerprint() {
				t.Error("EventSkip changed the fingerprint")
			}
			return
		}
		leaves++
		if other, dup := seen[fp]; dup {
			t.Errorf("changing %s gives the fingerprint of %s", name, other)
		}
		seen[fp] = "changing " + name
	})
	if leaves < 60 {
		t.Fatalf("the walk reached only %d leaf fields", leaves)
	}
	t.Logf("walked %d leaf fields", leaves)
}

// TestNegativeZeroFingerprintsLikeZero sets every float leaf of Config, one
// at a time, to 0 and to -0: the two run alike, so they must give one
// PointFingerprint.
func TestNegativeZeroFingerprintsLikeZero(t *testing.T) {
	floats := 0
	forEachLeaf(reflect.TypeOf(Config{}), nil, "", func(idx []int, name string) {
		f := reflect.ValueOf(&Config{}).Elem().FieldByIndex(idx)
		if f.Kind() != reflect.Float32 && f.Kind() != reflect.Float64 {
			return
		}
		floats++
		fp := func(v float64) uint64 {
			c := DefaultConfig(DesignSRL)
			reflect.ValueOf(&c).Elem().FieldByIndex(idx).SetFloat(v)
			return PointFingerprint(c, trace.SFP2K)
		}
		if pos, neg := fp(0), fp(math.Copysign(0, -1)); pos != neg {
			t.Errorf("%s: 0 fingerprints %016x, -0 %016x", name, pos, neg)
		}
	})
	if floats == 0 {
		t.Fatal("Config has no float leaf")
	}
	t.Logf("checked %d float leaves", floats)
}

// forEachLeaf calls f with the index path and dotted name of every
// non-struct field under t, recursing into nested structs.
func forEachLeaf(t reflect.Type, prefix []int, name string, f func([]int, string)) {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		idx := append(append([]int(nil), prefix...), i)
		n := name + sf.Name
		if sf.Type.Kind() == reflect.Struct {
			forEachLeaf(sf.Type, idx, n+".", f)
			continue
		}
		f(idx, n)
	}
}

// TestFingerprintRejectsNonScalarFields: the walk behind Fingerprint
// panics on a field that is not a bool, an integer, a float or a struct of
// them, so a string or slice added to Config fails every test that
// fingerprints a config instead of hashing a pointer or a header.
func TestFingerprintRejectsNonScalarFields(t *testing.T) {
	for name, v := range map[string]any{
		"string": struct {
			N int
			S string
		}{},
		"slice": struct {
			N int
			S []int
		}{},
		"nested slice": struct{ In struct{ S []uint64 } }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a struct holding a %s fingerprinted without a panic", name)
				}
			}()
			hashLeaves(fnvOffset, reflect.ValueOf(v))
		}()
	}
}

func TestPointFingerprintIncludesSuite(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	if PointFingerprint(cfg, trace.SFP2K) == PointFingerprint(cfg, trace.SINT2K) {
		t.Fatal("suite not part of the point fingerprint")
	}
	if PointFingerprint(cfg, trace.SFP2K) != PointFingerprint(cfg, trace.SFP2K) {
		t.Fatal("point fingerprint unstable")
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := DefaultConfig(DesignSRL)
	cfg.WarmupUops = 0
	cfg.RunUops = 50_000_000 // far longer than the test will allow
	c, err := New(cfg, trace.SINT2K)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := c.RunContext(ctx)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned results")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

func TestRunContextCompletesUncancelled(t *testing.T) {
	cfg := DefaultConfig(DesignBaseline)
	cfg.WarmupUops = 500
	cfg.RunUops = 4_000
	c, err := New(cfg, trace.PROD)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Uops < cfg.RunUops {
		t.Fatalf("short run: %d uops", res.Uops)
	}
}

// TestRunContextNoProgressError trips the forward-progress guard with a
// bound far below one stepped DRAM miss shadow: RunContext must stop with
// a *NoProgressError carrying the core's diagnostic state, not panic.
func TestRunContextNoProgressError(t *testing.T) {
	defer func(n uint64) { progressGuardIters = n }(progressGuardIters)
	progressGuardIters = 50
	cfg := DefaultConfig(DesignBaseline)
	cfg.WarmupUops = 1_000
	cfg.RunUops = 10_000
	cfg.EventSkip = false
	c, err := New(cfg, trace.SFP2K)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunContext(context.Background())
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("RunContext returned %v, want a *NoProgressError", err)
	}
	if res != nil {
		t.Fatal("a wedged run returned results")
	}
	if np.Cycle == 0 || np.Design != DesignBaseline || np.Suite != trace.SFP2K ||
		!strings.Contains(np.State, "cycle=") || !strings.Contains(err.Error(), np.State) {
		t.Fatalf("error lacks the run's identity or state: %+v", np)
	}
}
