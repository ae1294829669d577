package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// This file is the benchmark's defence against the host it runs on: a
// 2-vCPU shared VM where the hypervisor takes the CPU away for spells
// that stretch identical work from 2.4 s to 10 s of wall clock. Every
// timed number goes through two steps: the steal the kernel reports for
// the timed region is subtracted from its wall time (hostClock), and
// the per-repetition results are aggregated with one estimator
// (estimate) chosen from the evidence in NOISE.md. Steal is not all this
// host does: identical work runs 10-20% slower or faster for seconds to
// minutes at a time without a tick of steal, which is why the timed
// bounds in BENCHMARK.json are as wide as they are.

// userHZ is the unit of the /proc/stat columns. Linux fixes USER_HZ at
// 100 for every architecture's user-visible ABI.
const userHZ = 100

// procStatPath is where the steal counters are read from.
const procStatPath = "/proc/stat"

// parseSteal extracts the cumulative steal ticks from the contents of
// /proc/stat: the 8th number on the line labelled label, "cpu" for the
// sum over all CPUs or "cpu3" for one. ok is false when the line is
// missing or the kernel predates the steal column.
func parseSteal(stat []byte, label string) (ticks uint64, ok bool) {
	for _, line := range bytes.Split(stat, []byte{'\n'}) {
		fields := bytes.Fields(line)
		if len(fields) == 0 || string(fields[0]) != label {
			continue
		}
		// cpu user nice system idle iowait irq softirq steal ...
		if len(fields) < 9 {
			return 0, false
		}
		v, err := strconv.ParseUint(string(fields[8]), 10, 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// stealDelta is the steal accumulated between two readings. A reading
// below its predecessor means the counter wrapped: at 32 bits if the
// earlier value fitted in 32 bits, at 64 otherwise.
func stealDelta(before, after uint64) uint64 {
	if after >= before {
		return after - before
	}
	if before <= math.MaxUint32 {
		return (math.MaxUint32 - before) + 1 + after
	}
	return after - before // unsigned arithmetic wraps at 2^64
}

// hostSeconds applies the correction: wall minus stolen time, never
// below zero and never above wall.
func hostSeconds(wall time.Duration, stealTicks uint64) float64 {
	w := wall.Seconds()
	h := w - float64(stealTicks)/userHZ
	if h < 0 {
		return 0
	}
	if h > w {
		return w
	}
	return h
}

// hostClock times regions in steal-corrected host seconds.
type hostClock struct {
	// label is the /proc/stat line the steal is read from. A process
	// pinned to one CPU (as the benchmark's children are) reads that
	// CPU's line: what was stolen from it, exactly. An unpinned process
	// can only read the sum over all CPUs, which overstates what one busy
	// thread lost by up to the number of CPUs; hostSeconds clamps the
	// result, and host.steal_frac shows when the correction was large.
	label     string
	supported bool
	read      func() ([]byte, error)
}

func newHostClock() *hostClock {
	c := &hostClock{label: "cpu", read: func() ([]byte, error) { return os.ReadFile(procStatPath) }}
	if cpus, err := allowedCPUs(); err == nil && len(cpus) == 1 {
		c.label = "cpu" + strconv.Itoa(cpus[0])
	}
	if data, err := c.read(); err == nil {
		_, c.supported = parseSteal(data, c.label)
	}
	return c
}

// stamp is one reading of the wall clock and the steal counter.
type stamp struct {
	t     time.Time
	steal uint64
}

func (c *hostClock) now() stamp {
	s := stamp{t: time.Now()}
	if c.supported {
		if data, err := c.read(); err == nil {
			s.steal, _ = parseSteal(data, c.label)
		}
	}
	return s
}

// region is a timed interval: wall seconds, stolen seconds (clamped to
// wall) and their difference, the host seconds every rate is taken
// over.
type region struct {
	wall, steal, host float64
}

func (c *hostClock) since(start stamp) region {
	end := c.now()
	wall := end.t.Sub(start.t)
	var ticks uint64
	if c.supported {
		ticks = stealDelta(start.steal, end.steal)
	}
	host := hostSeconds(wall, ticks)
	return region{wall: wall.Seconds(), steal: wall.Seconds() - host, host: host}
}

// add accumulates another region (a window made of several stretches).
func (r region) add(o region) region {
	return region{wall: r.wall + o.wall, steal: r.steal + o.steal, host: r.host + o.host}
}

// stealFrac is the share of wall time the correction removed.
func (r region) stealFrac() float64 {
	if r.wall <= 0 {
		return 0
	}
	return r.steal / r.wall
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func estMedian(xs []float64) float64 { return quantile(xs, 0.5) }

// estimate turns the steal-corrected times of a run's repetitions —
// identical, deterministic work — into the one figure every timed
// in-process metric uses: their median. NOISE.md has the evidence. This
// host runs the same work in a slower and a faster state and switches
// between them for seconds to minutes at a time, so the fastest
// repetitions of a run say which state it happened to catch, and the
// minimum and the lower quartile, whole or step by step, spread two to
// four times as far from run to run as the median does. A whole
// repetition also keeps every cost the simulator itself incurs now and
// then, such as garbage collection, which a step-by-step low quantile
// filters out with the host's noise.
func estimate(hosts []float64) float64 { return estMedian(hosts) }

// iqrOverMedian is a sample's spread: the distance between its first
// and third quartile as a share of its median.
func iqrOverMedian(xs []float64) float64 {
	med := estMedian(xs)
	if med == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / med
}
