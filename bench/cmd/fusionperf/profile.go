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

// cpuLayers are the packages CPU time is attributed to, in reporting order.
// Every profile sample is charged to the innermost frame that belongs to
// one of them, so helper packages (stats, energy, flat, trace, mem) and the
// runtime work a layer causes (map probes, malloc, GC assists) count
// against the layer that called them. "runtime" takes the samples with no
// such frame: GC workers, the scheduler, and the benchmark's own code
// (including its HTTP client).
var cpuLayers = []string{
	"sim", "accel", "acc", "cache", "mesi", "interconnect", "dram", "vm",
	"scratchpad", "host", "workloads", "systems", "experiments", "service",
	"runtime",
}

// layerPrefix is the import-path prefix of the simulator's packages.
const layerPrefix = "fusion/internal/"

// layerOf maps a profile function name ("fusion/internal/acc.(*L0X).Access")
// to its layer, or "" when the frame is not in a listed layer.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range cpuLayers[:len(cpuLayers)-1] {
		if pkg == l {
			return l
		}
	}
	return ""
}

// foldProfile decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, in percent, for every entry of cpuLayers.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[len(s.values)-1]) // CPU nanoseconds
		total += w
		byLayer[p.sampleLayer(s)] += w
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
		if total > 0 {
			out[l] = 100 * byLayer[l] / total
		}
	}
	return out, nil
}

// sampleLayer walks a sample's stack from the leaf up. A location lists
// its inlined frames innermost first, so the first listed-layer frame met
// is the innermost one.
func (p *profile) sampleLayer(s sample) string {
	for _, locID := range s.locations {
		for _, fnID := range p.locations[locID] {
			if l := layerOf(p.strings[p.functions[fnID]]); l != "" {
				return l
			}
		}
	}
	return "runtime"
}

// profile is the part of a pprof profile.proto that folding needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name's string-table index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case fProfileSample:
			var s sample
			err := walkFields(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fSampleLocation:
					return appendVarints(&s.locations, w, v, m)
				case fSampleValue:
					var vs []uint64
					if err := appendVarints(&vs, w, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(m, func(f, w int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walkFields(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, which may arrive packed
// (wire type 2) or as one value per field (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// walkFields calls fn for each field of a protobuf message: v carries a
// varint or fixed value, msg a length-delimited payload.
func walkFields(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
