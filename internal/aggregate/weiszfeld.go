package aggregate

import (
	"math"

	"byzopt/internal/vecmath"
)

// weiszfeldMaxIter bounds the Weiszfeld fixed-point iteration.
const weiszfeldMaxIter = 200

// weiszfeldTol bounds the last Weiszfeld step and the secant estimate of the
// rest of the way to the median, not the step alone.
const weiszfeldTol = 1e-10

// weiszfeldInto writes the geometric median of the points, the minimiser of
// obj(y) = Σᵢ‖xᵢ − y‖, into dst. It iterates Weiszfeld's map T(y) = Σᵢwᵢxᵢ/Σᵢwᵢ,
// wᵢ = 1/max(‖xᵢ − y‖, eps), from the mean, with three additions in the one loop:
//
//   - A secant step (Anderson acceleration, memory 1): from the residuals
//     f = T(y) − y of the last two accepted iterates, γ = ⟨Δf, f⟩/⟨Δf, Δf⟩ and
//     the next iterate is T(y) − γ·ΔT. A γ that is NaN or ±Inf, or ⟨Δf, Δf⟩ = 0,
//     means the plain step T(y) and no secant estimate.
//   - A safeguard: the next distance pass yields obj at the extrapolated point;
//     unless it is at most (1 + n·2⁻⁵²) times obj at the iterate extrapolated
//     from, the loop goes on from that iterate's plain step, which never
//     increases obj, and forgets the secant pair: the accepted sequence stays
//     monotone. The slack is the rounding of a sum of n distances; without it
//     the order of the reports decides near convergence. ‖T(y) − y‖ cannot be
//     the merit, it tends to 0 next to every report.
//   - An exit where a report is the median and T converges sublinearly: the
//     first time the reports nearest to y, all at one distance, hold more than
//     half of the weight, one of them is tested with medianAt (each report at
//     most once a call) and returned itself if the test holds.
//
// The loop stops, returning T(y), when a secant estimate exists and the plain
// step ‖T(y) − y‖ and the secant correction ‖γ·ΔT‖ are both below weiszfeldTol:
// the plain step alone, at contraction rate r, leaves r/(1 − r)·weiszfeldTol of
// error. Without an estimate it stops only at T(y) = y, where every later
// iterate is y again: a residual of rounding size must not decide. A median
// that is not unique (collinear reports, even n) yields one minimiser.
func weiszfeldInto(dst []float64, points [][]float64, s *Scratch) error {
	n, d := len(points), len(dst)
	s.vecA = grow(s.vecA, 2*d)
	s.vecB = grow(s.vecB, 2*d)
	// g = T(y); fPrev, gPrev: residual and image of the iterate before y.
	y, fPrev := s.vecA[:d], s.vecA[d:]
	g, gPrev := s.vecB[:d], s.vecB[d:]
	if err := vecmath.MeanInto(y, points); err != nil {
		return err
	}
	const eps = 1e-12 // distance floor, avoids division blow-up at a point
	s.weights = grow(s.weights, 2*n)
	weights, tested := s.weights[:n], s.weights[n:]
	clear(tested)
	var objPrev float64
	var havePair, extrapolated bool
	for iter := 0; iter < weiszfeldMaxIter; iter++ {
		for i := 0; i < n; i++ {
			dist, err := vecmath.Dist(points[i], y)
			if err != nil {
				return err
			}
			weights[i] = dist
		}
		var obj, den float64
		heavy, twins := 0, 0 // the nearest report, and how many reports are as near
		for i, dist := range weights {
			obj += dist
			w := 1 / math.Max(dist, eps)
			weights[i] = w
			den += w
			if w > weights[heavy] {
				heavy, twins = i, 0
			}
			if w == weights[heavy] {
				twins++
			}
		}
		if extrapolated && !(obj <= objPrev*(1+float64(n)*0x1p-52)) {
			y, gPrev = gPrev, y
			havePair, extrapolated = false, false
			continue
		}
		objPrev = obj
		if 2*float64(twins)*weights[heavy] > den && tested[heavy] == 0 {
			tested[heavy] = 1
			if medianAt(g, points, heavy) {
				copy(dst, points[heavy])
				return nil
			}
		}
		// The weighted sum g[j] = Σᵢ weights[i]·points[i][j], in ascending
		// point order.
		for j := 0; j < d; j++ {
			var sum float64
			for i := 0; i < n; i++ {
				sum += weights[i] * points[i][j]
			}
			g[j] = sum
		}
		vecmath.ScaleInPlace(1/den, g)
		moved, err := vecmath.Dist(g, y)
		if err != nil {
			return err
		}
		var gamma, corr float64
		secant := false
		if havePair {
			var dff, dfF, dtt float64
			for j := range g {
				df := g[j] - y[j] - fPrev[j]
				dff += df * df
				dfF += df * (g[j] - y[j])
				dt := g[j] - gPrev[j]
				dtt += dt * dt
			}
			gamma = dfF / dff
			secant = dff != 0 && !math.IsNaN(gamma) && !math.IsInf(gamma, 0)
			corr = math.Abs(gamma) * math.Sqrt(dtt)
		}
		if moved == 0 || secant && moved < weiszfeldTol && corr < weiszfeldTol {
			copy(dst, g)
			return nil
		}
		for j := range g {
			next := g[j]
			if secant {
				next -= gamma * (g[j] - gPrev[j])
			}
			fPrev[j], gPrev[j], y[j] = g[j]-y[j], g[j], next
		}
		havePair, extrapolated = true, secant
	}
	if extrapolated {
		y = gPrev
	}
	copy(dst, y)
	return nil
}

// medianAt reports whether points[k] is a geometric median of points, by
// Kuhn's condition: the unit vectors from points[k] to the reports away from
// it sum to a vector no longer than the number of reports at it. sum is a
// d-sized buffer. Each term is (xᵢ − x_k)/r and not ·(1/r): in one dimension
// with even n the two middle reports meet the condition with equality, and
// only terms of exactly ±1 decide that the same way in every report order.
func medianAt(sum []float64, points [][]float64, k int) bool {
	clear(sum)
	at := 0
	for _, x := range points {
		// No dimension error: the caller's distance pass measured every report
		// against a d-vector.
		r, _ := vecmath.Dist(x, points[k])
		if r == 0 {
			at++
			continue
		}
		for j := range sum {
			sum[j] += (x[j] - points[k][j]) / r
		}
	}
	return vecmath.Norm(sum) <= float64(at)
}
