package aggregate

import (
	"runtime"
	"sync"

	"byzopt/internal/vecmath"
)

// pairwiseParallelWork is the n·n·d work size above which the distance
// matrix is computed concurrently when a filter's Workers field is 0
// (auto); below it goroutine startup costs more than it saves.
const pairwiseParallelWork = 1 << 17

// resolvePairwiseWorkers maps a filter's Workers field to a goroutine
// count for an n x n x d distance-matrix job: 0 picks GOMAXPROCS once the
// job is large enough to amortize the fan-out (1 otherwise), negative
// always means GOMAXPROCS, and a positive value is taken as given.
func resolvePairwiseWorkers(workers, n, d int) int {
	w := resolveWorkers(workers, n*n*d, pairwiseParallelWork)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// resolveWorkers is the shared Workers-field policy of the parallel
// kernels: 0 (auto) fans out only when the job exceeds the given work
// threshold, negative always means GOMAXPROCS, positive is taken as given.
func resolveWorkers(workers, work, threshold int) int {
	switch {
	case workers < 0:
		return runtime.GOMAXPROCS(0)
	case workers == 0:
		if work < threshold {
			return 1
		}
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// pairwiseDistSqInto fills d2 — an n x n matrix the caller owns, typically
// Scratch.distMatrix — with the squared Euclidean distances between
// gradients, the O(n²·d) kernel shared by the Krum family and Bulyan. Every
// entry including the diagonal is overwritten, so stale scratch contents
// cannot leak. Rows are striped across workers; every (i, j) entry is
// computed independently and written exactly once, so the matrix is bitwise
// identical at any worker count. Dimensions must have been validated by the
// caller.
func pairwiseDistSqInto(d2 [][]float64, grads [][]float64, workers int) {
	n := len(grads)
	if workers <= 1 || n <= 1 {
		// Inline sequential path: no closure is materialized, keeping the
		// scratch-backed call literally allocation-free.
		for i := 0; i < n; i++ {
			pairwiseFillRow(d2, grads, i)
		}
		return
	}
	fillRow := func(i int) { pairwiseFillRow(d2, grads, i) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := start; i < n; i += workers {
				fillRow(i)
			}
		}(w)
	}
	wg.Wait()
}

// pairwiseFillRow computes row i of the distance matrix: entries (i, j) for
// j > i, mirrored to (j, i), plus the zero diagonal entry.
func pairwiseFillRow(d2 [][]float64, grads [][]float64, i int) {
	d2[i][i] = 0
	gi := grads[i]
	for j := i + 1; j < len(grads); j++ {
		s := vecmath.DistSqKernel(gi, grads[j])
		d2[i][j] = s
		d2[j][i] = s
	}
}
