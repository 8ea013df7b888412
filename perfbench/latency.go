package main

import (
	"math"
	"slices"
)

// latRec keeps the exact latency of every request of a measured
// interval in storage of a fixed size: one counter per nanosecond below
// latDirectNS, and the rarer longer latencies as raw values. A run
// allocates its recorders once, before it builds a world, and touches
// every page, so the harness's share of mem_mb is the same on every run
// whatever the throughput.
type latRec struct {
	counts []uint32 // counts[ns]: requests that took ns nanoseconds
	long   []uint32 // latencies of latDirectNS and more, ns
	n      int
}

const (
	latDirectNS = 1 << 20 // 1.05 ms
	latLongCap  = 1 << 16
)

func newLatRecs(n int) []*latRec {
	rs := make([]*latRec, n)
	for i := range rs {
		rs[i] = &latRec{counts: make([]uint32, latDirectNS), long: make([]uint32, latLongCap)}
		clear(rs[i].long) // fault the pages in now, not during a run
		rs[i].reset()
	}
	return rs
}

func (r *latRec) reset() {
	clear(r.counts)
	r.long = r.long[:0]
	r.n = 0
}

func (r *latRec) add(ns int64) {
	if ns < latDirectNS {
		r.counts[max(ns, 0)]++
	} else {
		r.long = append(r.long, latNS(ns))
	}
	r.n++
}

func latNS(d int64) uint32 {
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

// quantilesUS returns the exact qs-quantiles, in ascending order of qs,
// of all the latencies in rs, in µs, and how many there are.
func quantilesUS(rs []*latRec, qs ...float64) ([]float64, int) {
	n := 0
	var long []uint32
	for _, r := range rs {
		n += r.n
		long = append(long, r.long...)
	}
	slices.Sort(long)
	out := make([]float64, len(qs))
	if n == 0 {
		return out, 0
	}
	rank := func(q float64) int {
		return max(0, min(int(math.Ceil(q*float64(n)))-1, n-1))
	}
	qi, seen := 0, 0
	for ns := 0; ns < latDirectNS && qi < len(qs); ns++ {
		for _, r := range rs {
			seen += int(r.counts[ns])
		}
		for ; qi < len(qs) && rank(qs[qi]) < seen; qi++ {
			out[qi] = float64(ns) / 1e3
		}
	}
	for ; qi < len(qs); qi++ {
		out[qi] = float64(long[rank(qs[qi])-seen]) / 1e3
	}
	return out, n
}
