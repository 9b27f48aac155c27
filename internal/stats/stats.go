package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CI95HalfWidth returns the half-width of a 95% normal-approximation
// confidence interval for the mean of xs. The paper's resiliency study
// (Section III-D1) samples until this interval is narrow enough.
func CI95HalfWidth(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.Inf(1)
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(n))
}

// Summary bundles the descriptive statistics reported by the experiment
// harness for a sampled quantity.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	CI95   float64 // half-width of the 95% CI of the mean
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.CI95 = CI95HalfWidth(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}
