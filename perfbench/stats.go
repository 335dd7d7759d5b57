package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1), or
// NaN when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), or NaN when xs is empty.
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

// latencySummary is a latency distribution with its sample count.
type latencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

func summarize(xs []float64) latencySummary {
	return latencySummary{
		Count: len(xs), P50: quantile(xs, 0.5), P90: quantile(xs, 0.9), P95: quantile(xs, 0.95),
		P99: quantile(xs, 0.99), P999: quantile(xs, 0.999), Max: maxOf(xs),
	}
}

// maxOf returns the largest element of xs, or NaN when xs is empty.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}
