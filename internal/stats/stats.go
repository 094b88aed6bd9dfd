// Package stats provides the statistical treatment the paper applies to
// its simulation results: sample means with 95% confidence intervals
// over multiple perturbed runs (Alameldeen & Wood's space-variability
// methodology), and the speedup/interaction arithmetic of §5:
//
//	Speedup(A)        = runtime(base) / runtime(A)
//	Speedup(A,B)      = Speedup(A) × Speedup(B) × (1 + Interaction(A,B))
//	Interaction(A,B)  = Speedup(A,B) / (Speedup(A) × Speedup(B)) − 1
package stats

import (
	"fmt"
	"math"
)

// Sample summarizes a set of measurements of one data point.
type Sample struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1)
	Min    float64
	Max    float64
}

// Summarize computes a Sample from raw values.
func Summarize(values []float64) Sample {
	if len(values) == 0 {
		return Sample{}
	}
	s := Sample{N: len(values), Min: values[0], Max: values[0]}
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range values {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// tTable97p5 holds two-sided 95% Student-t critical values (0.975
// quantile) for 1..30 degrees of freedom; beyond 30 we use the normal
// approximation 1.96.
var tTable97p5 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom (≥1).
func TCritical95(df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: %d degrees of freedom", df))
	}
	if df <= len(tTable97p5) {
		return tTable97p5[df-1]
	}
	return 1.960
}

// CI95 returns the half-width of the 95% confidence interval of the
// sample mean (0 for fewer than two values).
func (s Sample) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return TCritical95(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
}

// String formats the sample as "mean ± ci".
func (s Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean, s.CI95())
}

// Speedup is runtime(base)/runtime(enhanced); > 1 means the enhancement
// helps. It panics on non-positive runtimes (measurement bug).
func Speedup(baseRuntime, enhancedRuntime float64) float64 {
	if baseRuntime <= 0 || enhancedRuntime <= 0 {
		panic(fmt.Sprintf("stats: non-positive runtimes %f, %f", baseRuntime, enhancedRuntime))
	}
	return baseRuntime / enhancedRuntime
}

// SpeedupPct converts a speedup factor to the paper's "performance
// improvement" percentage (Speedup − 100%).
func SpeedupPct(speedup float64) float64 { return (speedup - 1) * 100 }

// Interaction computes the paper's EQ 5 interaction term from the three
// speedups: positive when the combination beats the product of the
// individual speedups.
func Interaction(speedupA, speedupB, speedupAB float64) float64 {
	if speedupA <= 0 || speedupB <= 0 {
		panic("stats: speedups must be positive")
	}
	return speedupAB/(speedupA*speedupB) - 1
}

// InteractionPct returns Interaction × 100.
func InteractionPct(speedupA, speedupB, speedupAB float64) float64 {
	return Interaction(speedupA, speedupB, speedupAB) * 100
}
