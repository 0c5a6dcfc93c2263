package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is one latency distribution. A failed or refused request is
// recorded as +Inf: it misses every latency limit, so it can only push
// a percentile up, never hide behind the successful requests.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }
func (s *samples) fail()               { *s = append(*s, math.Inf(1)) }

// minSamples is the fewest samples a p90 may be reported from: the
// highest reportable percentile is the one with at least ten samples
// beyond it.
const minSamples = 100

// percentile is the nearest-rank percentile (p in (0,1]) of s.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

// median is the plain median (mean of the middle pair for even n), used
// for run-level aggregates such as set-up and restart times.
func median(s []float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// errFewSamples marks a p90 asked of fewer than minSamples samples.
var errFewSamples = errors.New("too few samples for p90")

// p50p90 reports the median and p90 of a latency distribution, refusing
// a p90 that fewer than minSamples samples could not support.
func p50p90(s []float64) (p50, p90 float64, err error) {
	if len(s) < minSamples {
		return 0, 0, fmt.Errorf("%w: %d < %d", errFewSamples, len(s), minSamples)
	}
	return percentile(s, 0.5), percentile(s, 0.9), nil
}

// kindCount is the failure account of one request kind.
type kindCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// ledger counts requests per kind. A failure is a transport error or
// any non-2xx status, 429 and 503 included, or a 2xx whose body fails
// the benchmark's check.
type ledger map[string]*kindCount

func (l ledger) note(kind string, ok bool) {
	c := l[kind]
	if c == nil {
		c = &kindCount{}
		l[kind] = c
	}
	c.Attempted++
	if !ok {
		c.Failed++
	}
}

func (l ledger) totals() (attempted, failed int) {
	for _, c := range l {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}
