package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the *.cpu_share metrics: the flat (leaf-frame) share of a
// CPU profile's samples whose function lives in one of the layer's
// packages. Packages are matched by import path, with a trailing "/..."
// matching the path and everything below it.
var cpuLayers = []struct {
	metric string
	pkgs   []string
}{
	{"sim.cpu_share", []string{"slr/internal/sim"}},
	{"radio.cpu_share", []string{"slr/internal/radio"}},
	{"math.cpu_share", []string{"math"}},
	{"mac.cpu_share", []string{"slr/internal/mac"}},
	{"netstack.cpu_share", []string{"slr/internal/netstack"}},
	{"routing.cpu_share", []string{"slr/internal/routing/...", "slr/internal/label", "slr/internal/frac"}},
	{"mobility.cpu_share", []string{"slr/internal/mobility"}},
	// Go 1.24's swiss-table maps live in internal/runtime/maps; the
	// runtime.map* entry points remain for older toolchains.
	{"runtime.maps_cpu_share", []string{"internal/runtime/maps", "runtime.map*"}},
}

// gcRoots are the entry points of the garbage collector's work; a sample
// whose stack passes through one counts toward runtime.gc_cpu_share.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
}

// foldProfile reads a gzipped pprof CPU profile (as runtime/pprof writes
// it) and returns every cpuLayers metric plus runtime.gc_cpu_share.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := map[string]float64{"runtime.gc_cpu_share": 0}
	for _, l := range cpuLayers {
		out[l.metric] = 0
	}
	var total int64
	for _, s := range p.samples {
		v := s.values[p.valueIndex]
		total += v
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		if len(stack) == 0 {
			continue
		}
		leaf := stack[0]
		for _, l := range cpuLayers {
			if matchesAny(leaf, l.pkgs) {
				out[l.metric] += float64(v)
			}
		}
		for _, fn := range stack {
			if gcRoots[fn] {
				out["runtime.gc_cpu_share"] += float64(v)
				break
			}
		}
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	for k := range out {
		out[k] /= float64(total)
	}
	return out, nil
}

// matchesAny reports whether function fn belongs to one of the patterns:
// an import path, a path with a "/..." subtree suffix, or a function-name
// prefix ending in "*".
func matchesAny(fn string, patterns []string) bool {
	pkg := funcPackage(fn)
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "*"):
			if strings.HasPrefix(fn, strings.TrimSuffix(pat, "*")) {
				return true
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			if pkg == base || strings.HasPrefix(pkg, base+"/") {
				return true
			}
		case pkg == pat:
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "slr/internal/radio.(*Channel).Transmit" or "math.Log". Type
// arguments of generic instantiations, which may themselves hold paths,
// are cut off first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof Profile message the folding needs.
type profile struct {
	samples    []sample
	valueIndex int
	// locFuncs maps a location id to its function names, innermost
	// (leaf) inlined frame first, as the format orders them.
	locFuncs map[uint64][]string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes an uncompressed pprof Profile message.
func parseProfile(b []byte) (*profile, error) {
	var (
		strs        []string
		sampleTypes []uint64 // string index of each ValueType.type
		rawSamples  [][]byte
		rawLocs     [][]byte
		funcNames   = map[uint64]uint64{} // function id -> name string index
	)
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			return eachField(data, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case profSample:
			rawSamples = append(rawSamples, data)
		case profLocation:
			rawLocs = append(rawLocs, data)
		case profFunction:
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	p := &profile{locFuncs: map[uint64][]string{}}
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			p.valueIndex = i
		}
	}
	for _, data := range rawLocs {
		var id uint64
		var fns []string
		err := eachField(data, func(num int, v uint64, line []byte) error {
			switch num {
			case locationID:
				id = v
			case locationLine:
				return eachField(line, func(num int, v uint64, _ []byte) error {
					if num == lineFunctionID {
						fns = append(fns, str(funcNames[v]))
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.locFuncs[id] = fns
	}
	for _, data := range rawSamples {
		var s sample
		err := eachField(data, func(num int, v uint64, packed []byte) error {
			switch num {
			case sampleLocationID:
				if packed == nil {
					s.locs = append(s.locs, v)
					return nil
				}
				return eachVarint(packed, func(v uint64) { s.locs = append(s.locs, v) })
			case sampleValue:
				if packed == nil {
					s.values = append(s.values, int64(v))
					return nil
				}
				return eachVarint(packed, func(v uint64) { s.values = append(s.values, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if p.valueIndex >= len(s.values) {
			return nil, fmt.Errorf("sample has %d values, want more than %d", len(s.values), p.valueIndex)
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: with the
// value of a varint field, or with the payload of a length-delimited one
// (data is nil for varints). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
