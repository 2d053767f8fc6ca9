package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// protoBuf encodes the few protobuf shapes a profile needs.
type protoBuf struct{ b []byte }

func (p *protoBuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }

func (p *protoBuf) uint(field int, v uint64) {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var q protoBuf
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// fixtureProfile is a CPU profile of four samples:
//
//   - 30 ns in stats.(*Counter).Inc inlined into accel.(*Accelerator).Tick:
//     a helper package, charged to accel;
//   - 20 ns in runtime.mallocgc called from mesi.(*Client).Access: malloc,
//     charged to the layer that allocated;
//   - 10 ns in runtime.gcBgMarkWorker: no layer frame, so runtime;
//   - 40 ns in sim.(*Engine).Step called from systems.RunCtx: the innermost
//     layer frame wins.
func fixtureProfile(t *testing.T) []byte {
	names := []string{"",
		"fusion/internal/stats.(*Counter).Inc",
		"fusion/internal/accel.(*Accelerator).Tick",
		"runtime.mallocgc",
		"fusion/internal/mesi.(*Client).Access",
		"runtime.gcBgMarkWorker",
		"fusion/internal/systems.RunCtx",
		"fusion/internal/sim.(*Engine).Step",
	}
	var p protoBuf
	sample := func(values [2]uint64, locs []uint64, packed bool) {
		var s protoBuf
		if packed {
			s.packed(fSampleLocation, locs...)
		} else {
			for _, l := range locs {
				s.uint(fSampleLocation, l)
			}
		}
		s.packed(fSampleValue, values[0], values[1])
		p.bytes(fProfileSample, s.b)
	}
	sample([2]uint64{1, 30}, []uint64{1, 6, 5}, true)
	sample([2]uint64{1, 20}, []uint64{2, 3, 5}, true)
	sample([2]uint64{1, 10}, []uint64{4}, false)
	sample([2]uint64{1, 40}, []uint64{6, 5}, false)
	for id, fns := range map[uint64][]uint64{1: {1, 2}, 2: {3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}} {
		var loc protoBuf
		loc.uint(fLocationID, id)
		for _, fn := range fns {
			var line protoBuf
			line.uint(fLineFunction, fn)
			line.uint(2, 100) // line number
			loc.bytes(fLocationLine, line.b)
		}
		p.bytes(fProfileLocation, loc.b)
	}
	for i := 1; i < len(names); i++ {
		var fn protoBuf
		fn.uint(fFunctionID, uint64(i))
		fn.uint(fFunctionName, uint64(i))
		p.bytes(fProfileFunction, fn.b)
	}
	for _, n := range names {
		p.bytes(fProfileStrings, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldProfileChargesInnermostLayer(t *testing.T) {
	got, err := foldProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"accel": 30, "mesi": 20, "runtime": 10, "sim": 40}
	for _, l := range cpuLayers {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s.cpu_pct = %v, want %v", l, got[l], want[l])
		}
	}
	if _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Error("a malformed profile folded without error")
	}
}
