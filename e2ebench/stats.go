package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the tail percentiles in the order tried. A percentile
// counts only when at least minBeyond samples lie above it, so a "tail" is
// never one or two unlucky operations.
var tailLadder = []float64{99, 90, 75}

const (
	minBeyond     = 10
	minTailSample = 40 // below this only the median is reported
)

// tailPercentile applies the tail rule to a sample count: the highest
// ladder percentile leaving at least minBeyond samples beyond it, or the
// median (50) under minTailSample samples.
func tailPercentile(n int) float64 {
	if n < minTailSample {
		return 50
	}
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile of sorted samples by the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// tail reports the workload's fixed tail percentile over the samples. If
// the run gathered too few samples for it, the rule's lower percentile is
// used instead and the switch is reported, since a tail read at another
// percentile is not comparable across runs.
func tail(lat []time.Duration, fixed float64) (time.Duration, float64, error) {
	p := fixed
	var err error
	if got := tailPercentile(len(lat)); got < fixed {
		err = fmt.Errorf("%d samples support only p%g, not the fixed p%g", len(lat), got, fixed)
		p = got
	}
	return percentile(sortDurations(lat), p), p, err
}

// windowed applies stat to each window of n consecutive samples and
// returns the median window's value. A trailing partial window is dropped.
func windowed(lat []time.Duration, n int, stat func([]time.Duration) time.Duration) time.Duration {
	var per []float64
	for i := 0; i+n <= len(lat); i += n {
		per = append(per, float64(stat(lat[i:i+n])))
	}
	if len(per) == 0 {
		return stat(lat)
	}
	return time.Duration(median(per))
}

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

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
