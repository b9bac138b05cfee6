package core

import (
	"fmt"
	"math"
	"reflect"

	"srlproc/internal/trace"
)

// Fingerprint returns a stable 64-bit hash of the complete configuration,
// covering every field including the nested memory-hierarchy and
// observability configs and the workload seed. Two configs with equal
// fingerprints describe the same simulation point (the simulator is
// deterministic in its config), which is what makes cross-experiment result
// memoization in internal/sweep sound.
//
// The hash is FNV-1a over the config's leaf values in field order, each
// bool, integer and float fed in as one 64-bit word (a float by its IEEE
// bits, -0 as 0). It is stable within a process and across runs of the
// same build; it is not a serialization format and makes no cross-version
// promises: reordering or adding a field changes every value, which is why
// the persistent store folds a build stamp into its keys.
//
// EventSkip is normalized out before hashing: cycle skipping is proven
// bit-for-bit identical to plain stepping, so a skipped and a stepped run
// of the same point are the same result and must share memo/store entries.
func (c Config) Fingerprint() uint64 {
	c.EventSkip = false
	return hashLeaves(fnvOffset, reflect.ValueOf(&c).Elem())
}

// PointFingerprint extends Config.Fingerprint with the workload suite,
// identifying one (config, suite) simulation point. The seed is part of the
// config and therefore already hashed.
func PointFingerprint(c Config, suite trace.Suite) uint64 {
	return fnvWord(c.Fingerprint(), uint64(suite))
}

// STQFamily returns the key of cfg's store-queue family: PointFingerprint
// with STQSize cleared. The points of one family differ only in the size
// of their single-level store queue, so a run whose queue never filled
// answers every larger member (Results.Answers).
func STQFamily(c Config, suite trace.Suite) uint64 {
	c.STQSize = 0
	return PointFingerprint(c, suite)
}

// FNV-1a's 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord feeds the eight bytes of x, low byte first, into the FNV-1a
// state h.
func fnvWord(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// hashLeaves feeds every leaf of v, a struct walked in field order, into
// h. It panics on any field that is not a bool, an integer, a float or a
// nested struct of them: a string, slice, map or pointer would make the
// fingerprint depend on more than the config's value, so Config must stay
// a pure value type.
func hashLeaves(h uint64, v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h = hashLeaves(h, v.Field(i))
		}
		return h
	case reflect.Bool:
		var x uint64
		if v.Bool() {
			x = 1
		}
		return fnvWord(h, x)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fnvWord(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return fnvWord(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		// Adding zero turns -0 into 0, which runs exactly as it does, so
		// the two share one fingerprint.
		return fnvWord(h, math.Float64bits(v.Float()+0))
	}
	panic(fmt.Sprintf("core: cannot fingerprint a %s field", v.Type()))
}
