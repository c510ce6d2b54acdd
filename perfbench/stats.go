package main

import (
	"math"
	"sort"
	"time"
)

// percentileUS returns the nearest-rank p-th percentile of durations, in
// microseconds. The input is sorted in place.
func percentileUS(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	idx := int(math.Ceil(p / 100 * float64(len(d))))
	if idx < 1 {
		idx = 1
	}
	if idx > len(d) {
		idx = len(d)
	}
	return float64(d[idx-1]) / 1e3
}

// median returns the median of xs (the mean of the middle pair for an
// even count). The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// series is one metric's repeated measurements inside a run. The reported
// value is the median; the report also prints every value with min and
// max, so a reader sees the in-run spread next to the figure.
type series struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

func newSeries(name, unit string, values ...float64) series {
	s := series{Name: name, Unit: unit, Values: values, Median: median(values)}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}
