package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts:
// the same simulator pass takes from 0.85 s to 1.5 s depending on what
// the rest of the machine does, for minutes at a time, with no steal
// time reported and the process's CPU time growing with its wall time.
// No amount of work inside one run averages that out, so the simulator
// workloads time the host as well as the program: fixed pieces of work
// of the benchmark's own (they call no code of the repository, so no
// change to the program moves them) run between the program's units of
// work, and each unit's time is scaled by how much slower than their
// reference times they ran at the time. A change that makes the
// program slower or faster moves the scaled figures exactly as much as
// the raw ones; a host that slows both the program and the probes
// moves neither.

// The host is timed with two probes: one that allocates nothing and
// one that allocates as the simulator does. On the hosts this was tuned
// on, the sim-sweep workload slowed with the allocating probe and the
// sim-soak workload (dominated by the trace recorder's copying) with
// the other, so the host's slowdown is the geometric mean of the two.
//
// live-kv is not scaled. Its latencies are mostly waits for the kernel
// and the scheduler, not computation: over five runs its raw p50 and
// p99 read within 3% and 5% of each other while the probes in the
// same process moved 15%, and scaling by them spread the latencies
// 17%.
//
// The reference times are the probes' times on an unloaded host of the
// kind this was tuned on (2 GHz, two CPUs): the speed that scaled
// figures are stated at.
const (
	computeRefNs = 0.8e6
	allocRefNs   = 1.1e6
	// computeIters and allocIters size the probes at about their
	// reference times.
	computeIters = 40000
	allocIters   = 24000
	// computeReps compute probes are taken at each point and the fastest
	// counts: that probe is only ever slowed, by the garbage collector
	// or the scheduler taking the CPU for part of it. allocReps
	// allocating probes are taken and the median counts, as the
	// collector's share is part of what that probe measures.
	computeReps = 5
	allocReps   = 3
)

var (
	probeTable [1024]uint64
	probeSink  uint64
)

// computeProbe does the allocation-free probe's fixed work once and
// returns its wall time. The work is shaped like the simulator's inner
// loops: random numbers, operations on 64-bit process sets, lookups in
// a small hash table, insertion into a short sorted slice.
func computeProbe() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var sets [64]uint64
	var sorted [32]uint64
	var sink uint64
	for i := 0; i < computeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 63
		sets[j] ^= x
		sink += uint64(bits.OnesCount64(sets[j] & sets[(j+17)&63]))
		// Linear probing; the table is cleared before it fills.
		key := x&0xffff | 1
		h := (x * 0x9e3779b97f4a7c15) >> 54
		for probeTable[h] != 0 && probeTable[h] != key {
			h = (h + 1) & 1023
		}
		probeTable[h] = key
		if i&511 == 511 {
			probeTable = [1024]uint64{}
		}
		if i&31 == 0 {
			n := 8 + int(x&23)
			for k := 0; k < n; k++ {
				v := sets[(j+uint64(k))&63]
				m := k
				for m > 0 && sorted[m-1] > v {
					sorted[m] = sorted[m-1]
					m--
				}
				sorted[m] = v
			}
			sink += sorted[n/2]
		}
	}
	probeSink += sink
	return time.Since(start)
}

// allocProbe does the allocating probe's fixed work once and returns
// its wall time: the same kind of loop over a Go map, with short-lived
// slices sorted through sort.Slice.
func allocProbe() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var sets [64]uint64
	m := make(map[uint64]uint64, 128)
	var keep [][]uint64
	var sink uint64
	for i := 0; i < allocIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 63
		sets[j] ^= x
		sink += uint64(bits.OnesCount64(sets[j] & sets[(j+17)&63]))
		m[x&255] += sink
		if i&31 == 0 {
			buf := make([]uint64, 8+x&31)
			for k := range buf {
				buf[k] = sets[(j+uint64(k))&63]
			}
			sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
			keep = append(keep, buf)
			if len(keep) > 64 {
				keep = keep[1:]
			}
		}
	}
	probeSink += sink + uint64(len(m)) + uint64(len(keep))
	return time.Since(start)
}

// hostSlowdown probes the host and returns how much slower than the
// reference it ran: the geometric mean of the two probes' slowdowns.
func hostSlowdown() float64 {
	best := computeProbe()
	for i := 1; i < computeReps; i++ {
		if d := computeProbe(); d < best {
			best = d
		}
	}
	var alloc [allocReps]float64
	for i := range alloc {
		alloc[i] = float64(allocProbe())
	}
	sort.Float64s(alloc[:])
	return math.Sqrt(float64(best) / computeRefNs * alloc[allocReps/2] / allocRefNs)
}

// hostClock times consecutive stretches of the program's work, probing
// the host between them.
type hostClock struct {
	last  float64
	start time.Time
}

// newHostClock probes the host and starts the first stretch.
func newHostClock() *hostClock {
	return &hostClock{last: hostSlowdown(), start: time.Now()}
}

// lap ends the current stretch, probes the host and starts the next
// stretch. It returns the ended stretch's wall time and the host's
// slowdown over it, the mean of the probes at its two ends.
func (c *hostClock) lap() (wall time.Duration, slow float64) {
	wall = time.Since(c.start)
	now := hostSlowdown()
	slow = (c.last + now) / 2
	c.last = now
	c.start = time.Now()
	return wall, slow
}

// scaled is d at the reference speed, for a host slowdown slow.
func scaled(d time.Duration, slow float64) time.Duration {
	return time.Duration(float64(d) / slow)
}

// scaledMedian runs fn reps times and returns the median of its times
// at the reference speed, in seconds.
func scaledMedian(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	c := newHostClock()
	for i := range ts {
		fn()
		wall, slow := c.lap()
		ts[i] = scaled(wall, slow).Seconds()
	}
	return median(ts)
}
