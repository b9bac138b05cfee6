package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuProfile is a runtime/pprof CPU profile reduced to what the layer
// metrics need: each sample's stack as function names, leaf first, with
// inlined calls as frames of their own (as pprof -top shows them).
type cpuProfile struct {
	samples []profSample
	total   int64
}

type profSample struct {
	funcs  []string
	weight int64
}

// cumFrac is the share of samples with a matching function anywhere on the
// stack (pprof's cum%).
func (p *cpuProfile) cumFrac(match func(string) bool) float64 {
	var w int64
	for _, s := range p.samples {
		for _, f := range s.funcs {
			if match(f) {
				w += s.weight
				break
			}
		}
	}
	return ratio(float64(w), float64(p.total))
}

// flatFrac is the share of samples whose leaf function matches (pprof's
// flat%).
func (p *cpuProfile) flatFrac(match func(string) bool) float64 {
	var w int64
	for _, s := range p.samples {
		if len(s.funcs) > 0 && match(s.funcs[0]) {
			w += s.weight
		}
	}
	return ratio(float64(w), float64(p.total))
}

func named(name string) func(string) bool {
	return func(f string) bool { return f == name }
}

func inPackage(pkg string) func(string) bool {
	return func(f string) bool { return packageOf(f) == pkg }
}

// isMapFunc matches the runtime's map operations (Go 1.24 keeps them in
// internal/runtime/maps behind runtime.map* entry points).
func isMapFunc(f string) bool {
	return strings.HasPrefix(f, "runtime.map") || packageOf(f) == "internal/runtime/maps"
}

// isGCFunc matches garbage-collector work: background and assist marking,
// sweeping and scavenging.
func isGCFunc(f string) bool {
	switch f {
	case "runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge":
		return true
	}
	return strings.HasPrefix(f, "runtime.gc")
}

// packageOf returns a function name's import path: "srlproc/internal/lsq"
// for "srlproc/internal/lsq.(*SRL).Push".
func packageOf(f string) string {
	if i := strings.IndexAny(f, "(["); i >= 0 {
		f = f[:i]
	}
	slash := strings.LastIndexByte(f, '/')
	if dot := strings.IndexByte(f[slash+1:], '.'); dot >= 0 {
		return f[:slash+1+dot]
	}
	return f
}

func readCPUProfile(path string) (*cpuProfile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// parseProfile decodes the fields of profile.proto the metrics use:
// Profile.sample (2), .location (4), .function (5) and .string_table (6);
// Sample.location_id (1) and .value (2); Location.id (1) and .line (4);
// Line.function_id (1); Function.id (1) and .name (2).
func parseProfile(data []byte) (*cpuProfile, error) {
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs     []string
		samples  []rawSample
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err := eachField(data, func(f pbField) error {
		var err error
		switch f.num {
		case 2:
			var s rawSample
			err = eachField(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					s.locs, err = g.uints(s.locs)
				case 2:
					s.vals, err = g.uints(s.vals)
				}
				return err
			})
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err = eachField(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 4:
					return eachField(g.bytes, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			err = eachField(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = g.varint
				}
				return nil
			})
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{weight: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errBadProfile
				}
				ps.funcs = append(ps.funcs, strs[idx])
			}
		}
		p.samples = append(p.samples, ps)
		p.total += ps.weight
	}
	return p, nil
}

var errBadProfile = errors.New("malformed profile")

// pbField is one protobuf field: its number, wire type and payload.
type pbField struct {
	num, wire int
	varint    uint64
	bytes     []byte
}

// uints appends the field's value(s): a single varint, or a packed run.
func (f pbField) uints(dst []uint64) ([]uint64, error) {
	switch f.wire {
	case 0:
		return append(dst, f.varint), nil
	case 2:
		for b := f.bytes; len(b) > 0; {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errBadProfile
			}
			dst = append(dst, v)
			b = b[n:]
		}
		return dst, nil
	}
	return nil, errBadProfile
}

// eachField calls fn for every field of one protobuf message.
func eachField(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			f.varint, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			f.varint, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProfile
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
