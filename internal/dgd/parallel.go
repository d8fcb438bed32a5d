package dgd

import "sync"

// parallelFor runs fn over every index in idx using up to workers
// goroutines, returning when all calls finish. When several calls fail,
// the error of the smallest index wins, so failures are reported
// deterministically regardless of goroutine scheduling.
func parallelFor(workers int, idx []int, fn func(i int) error) error {
	workers = min(workers, len(idx))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for k := start; k < len(idx); k += workers {
				i := idx[k]
				if err := fn(i); err != nil {
					mu.Lock()
					if firstIdx == -1 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
