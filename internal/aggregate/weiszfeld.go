package aggregate

import (
	"math"
	"sync"

	"byzopt/internal/vecmath"
)

// weiszfeldMaxIter bounds the Weiszfeld fixed-point iteration.
const weiszfeldMaxIter = 200

// weiszfeldParallelWork is the n·d work size above which each Weiszfeld
// iteration is computed concurrently when a filter's Workers field is 0
// (auto); the iteration fans out up to weiszfeldMaxIter times, so the
// threshold sits below the pairwise kernel's.
const weiszfeldParallelWork = 1 << 14

// resolveWeiszfeldWorkers maps a filter's Workers field to a goroutine
// count for an n-point, d-dimensional Weiszfeld job, mirroring
// resolvePairwiseWorkers: 0 picks GOMAXPROCS once the per-iteration work is
// large enough to amortize the fan-out (1 otherwise), negative always means
// GOMAXPROCS, positive is taken as given. Each phase independently caps the
// count at its own stripe count (points for distances, coordinates for the
// accumulation — see weiszfeldStripe), so tall-skinny and short-wide inputs
// both keep their dominant phase parallel.
func resolveWeiszfeldWorkers(workers, n, d int) int {
	w := resolveWorkers(workers, n*d, weiszfeldParallelWork)
	if w < 1 {
		w = 1
	}
	return w
}

// weiszfeldInto runs the Weiszfeld fixed-point iteration for the geometric
// median of the given points, writing the result into dst and drawing the
// iterate, accumulator, and weight buffers from s (the two d-sized iterates
// ping-pong between s.vecA and s.vecB instead of allocating per iteration).
// Each iteration's work is batched across the worker pool: point distances
// are striped across points (each distance computed whole by one worker) and
// the weighted accumulation is striped across coordinates (each coordinate
// accumulated in full point order by one worker). Both stripings preserve
// the sequential operation order per output value, so the result is bitwise
// identical at any worker count — the same guarantee the pairwise-distance
// kernel gives the Krum family. With one worker the phases run as inline
// loops and the call is allocation-free on a warm Scratch.
func weiszfeldInto(dst []float64, points [][]float64, tol float64, workers int, s *Scratch) error {
	if tol <= 0 {
		tol = 1e-10
	}
	n, d := len(points), len(dst)
	s.vecA = growFloats(s.vecA, d)
	s.vecB = growFloats(s.vecB, d)
	y, num := s.vecA, s.vecB
	if err := vecmath.MeanInto(y, points); err != nil {
		return err
	}
	workers = resolveWeiszfeldWorkers(workers, n, d)
	const eps = 1e-12 // distance floor, avoids division blow-up at a point
	s.weights = growFloats(s.weights, n)
	weights := s.weights
	for iter := 0; iter < weiszfeldMaxIter; iter++ {
		// Phase 1: per-point distances to the current iterate. Each entry
		// is computed entirely by one worker, exactly as the sequential
		// loop would.
		if workers <= 1 {
			for i := 0; i < n; i++ {
				dist, err := vecmath.Dist(points[i], y)
				if err != nil {
					return err
				}
				weights[i] = 1 / math.Max(dist, eps)
			}
		} else {
			yCur := y
			if err := weiszfeldStripe(workers, n, func(i int) error {
				dist, err := vecmath.Dist(points[i], yCur)
				if err != nil {
					return err
				}
				weights[i] = 1 / math.Max(dist, eps)
				return nil
			}); err != nil {
				return err
			}
		}
		var den float64
		for _, w := range weights {
			den += w
		}
		// Phase 2: the weighted sum num[j] = sum_i weights[i]·points[i][j],
		// striped across coordinates with the inner loop in ascending point
		// order — the same association order as the sequential Axpy loop.
		if workers <= 1 {
			for j := 0; j < d; j++ {
				var sum float64
				for i := 0; i < n; i++ {
					sum += weights[i] * points[i][j]
				}
				num[j] = sum
			}
		} else {
			numCur := num
			if err := weiszfeldStripe(workers, d, func(j int) error {
				var sum float64
				for i := 0; i < n; i++ {
					sum += weights[i] * points[i][j]
				}
				numCur[j] = sum
				return nil
			}); err != nil {
				return err
			}
		}
		vecmath.ScaleInPlace(1/den, num)
		moved, err := vecmath.Dist(num, y)
		if err != nil {
			return err
		}
		y, num = num, y
		if moved < tol {
			break
		}
	}
	copy(dst, y)
	return nil
}

// weiszfeldStripe runs fn(i) for i in [0, count), striped across the worker
// pool (worker w takes i = w, w+workers, ...), with the pool capped at the
// stripe count. With one worker it degrades to the plain sequential loop.
func weiszfeldStripe(workers, count int, fn func(i int) error) error {
	if workers > count {
		workers = count
	}
	if workers <= 1 || count <= 1 {
		for i := 0; i < count; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := start; i < count; i += workers {
				if err := fn(i); err != nil {
					errs[start] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
