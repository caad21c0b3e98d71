package main

import (
	"math/bits"
	"sort"
)

// median returns the median of xs (0 when xs is empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentile ladder the tail metrics climb, as exact
// fractions so the rank arithmetic below stays in integers.
var tailLadder = []struct {
	num, den uint64
	pct      float64
}{
	{50, 100, 50}, {90, 100, 90}, {99, 100, 99}, {999, 1000, 99.9},
	{9999, 10000, 99.99}, {99999, 100000, 99.999}, {999999, 1000000, 99.9999},
}

// tailRank picks the highest ladder percentile of n samples that still has
// at least ten samples ranked beyond it, and returns that percentile with its
// 1-based nearest rank (ceil(p*n)). When even the median has fewer than ten
// samples beyond it, the median is the tail.
func tailRank(n uint64) (pct float64, rank uint64) {
	pct, rank = 50, (n+1)/2
	for _, p := range tailLadder {
		k := (p.num*n + p.den - 1) / p.den
		if n-k < 10 {
			break
		}
		pct, rank = p.pct, k
	}
	return pct, rank
}

// nearestRank returns the rank-th smallest of xs (1-based, clamped).
func nearestRank(xs []float64, rank uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if rank < 1 {
		rank = 1
	}
	if rank > uint64(len(s)) {
		rank = uint64(len(s))
	}
	return s[rank-1]
}

// nsHist is a log-linear histogram of nanosecond durations: exact below 16,
// then eight buckets per power of two (at most 12.5% relative error). It
// records millions of per-call durations in constant space.
type nsHist struct {
	counts [16 + 60*8]uint64
	n      uint64
}

func nsBucket(v uint64) int {
	if v < 16 {
		return int(v)
	}
	shift := bits.Len64(v) - 4
	return 16 + (shift-1)*8 + int(v>>uint(shift)) - 8
}

// nsBucketMid is the midpoint of bucket i's value range.
func nsBucketMid(i int) float64 {
	if i < 16 {
		return float64(i)
	}
	shift := uint((i-16)/8 + 1)
	lo := uint64((i-16)%8+8) << shift
	return float64(lo) + float64(uint64(1)<<shift-1)/2
}

func (h *nsHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[nsBucket(uint64(ns))]++
	h.n++
}

// at returns the value of the rank-th smallest sample (1-based).
func (h *nsHist) at(rank uint64) float64 {
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if c > 0 && cum >= rank {
			return nsBucketMid(i)
		}
	}
	return 0
}
