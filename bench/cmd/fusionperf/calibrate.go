package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"
)

// Shared hosts change speed: on the 2-core machine the bounds were set on,
// the same pass ran 40% slower for minutes at a time while a neighbour was
// busy, which no amount of repetition inside a 20-second run averages out.
// So every reported time is scaled to a reference host speed, measured by
// a calibration kernel run just before and just after the timed code: a
// pass that took wall time w is reported as w*f, where f is the mean over
// the two measurements of referenceKernel/k, k the kernel's time. The
// kernel is the benchmark's own code, independent of the simulator, so a
// change to the simulator moves the scaled time in the same proportion as
// the wall time. On that host, over nine minutes of scratch-cells passes,
// the interquartile spread of 20-second medians was 22% unscaled and 5%
// scaled by the kernel run before each pass; the measurement after the
// pass as well matters for passes of several seconds, such as artifacts'.
// The unscaled wall times are kept in the results.

// referenceKernel is the calibration kernel's time on the uncontended
// reference host; scaled times read as seconds on that host.
const referenceKernel = 17 * time.Millisecond

// kernelSink keeps the kernel's results alive.
var kernelSink uint64

// calibrationKernel does fixed work with the simulator's mix: hashing into
// a map, allocating a linked structure and chasing its pointers, and
// integer arithmetic.
func calibrationKernel() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(1))
	m := make(map[uint64]uint64, 1<<15)
	for i := 0; i < 1<<15; i++ {
		m[rng.Uint64()&0xfffff] = uint64(i)
	}
	var s uint64
	for i := 0; i < 400_000; i++ {
		s += m[rng.Uint64()&0xfffff]
	}
	type node struct {
		next *node
		v    [6]uint64
	}
	var head *node
	for i := 0; i < 100_000; i++ {
		head = &node{next: head, v: [6]uint64{uint64(i)}}
	}
	for k := 0; k < 5; k++ {
		for n := head; n != nil; n = n.next {
			s += n.v[0]
		}
	}
	x := uint64(1)
	for i := 0; i < 5_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	kernelSink += s + x
	return time.Since(t0)
}

// hostFactor runs the calibration kernel three times and returns the
// factor that scales a time measured now to the reference host speed. The
// fastest of the three runs stands for the host's current speed, so one
// interrupted run does not skew it.
func hostFactor() float64 {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		runtime.GC()
		if d := calibrationKernel(); d < best {
			best = d
		}
	}
	runtime.GC()
	return float64(referenceKernel) / float64(best)
}

// hostClock scales timed intervals by the host speed around them: each
// interval's factor is the mean of the factors measured just before and
// just after it, so a long pass is not judged by the moment it started.
// An uncalibrated clock reports every factor as 1.
type hostClock struct {
	before       float64
	uncalibrated bool
}

func newHostClock(uncalibrated bool) *hostClock {
	if uncalibrated {
		return &hostClock{before: 1, uncalibrated: true}
	}
	return &hostClock{before: hostFactor()}
}

// next measures the host speed now and returns the factor for the interval
// that just ended; the measurement also opens the next interval.
func (c *hostClock) next() float64 {
	if c.uncalibrated {
		return 1
	}
	after := hostFactor()
	f := (c.before + after) / 2
	c.before = after
	return f
}
