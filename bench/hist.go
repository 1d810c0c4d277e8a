package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear histogram of durations in nanoseconds:
// 64 linear sub-buckets per power of two, so a bucket is at most 1.6 % wide
// and a quantile is interpolated inside it. It exists so that recording a
// latency neither allocates nor grows the heap the benchmark reports as
// live_heap_mb: a run at 100k msgs/s would otherwise keep millions of
// samples. One goroutine records; readers wait for it to stop.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histOctaves = 36 // up to 2^41 ns, about 36 minutes
	histBuckets = histOctaves * histSub
)

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - histSubBits - 1
	i := (exp+1)*histSub + int(uint64(v)>>uint(exp))&(histSub-1)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histBounds returns the half-open value range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := uint(i/histSub - 1)
	base := uint64(histSub+i%histSub) << exp
	return float64(base), float64(base + 1<<exp)
}

func (h *hist) record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) add(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, hi := histBounds(i)
			return lo + (rank-cum+0.5)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}

// median of a small sample; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max − min) / median of a small sample: the figure printed
// beside every median so a reader can tell a noisy run from a slow one.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return (hi - lo) / m
}
