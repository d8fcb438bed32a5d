package dgd

import (
	"fmt"

	"byzopt/internal/byzantine"
)

// Arena lends a run the tables its set-up would otherwise allocate, so that a
// caller running many short runs one after another — a sweep worker — builds
// them once. It holds the Round (with the filter's aggregate.Scratch, the
// estimate/direction backing and the input table), the Collector (with its
// index, row, face and gradient tables and a coalition's followers), the
// Byzantine wrappers of WrapFaulty, and a substrate's own tables (Substrate).
// Every table grows monotonically, like a Scratch, and the next run re-arms
// it: a lent table is cleared before use, so a run over a warm arena computes
// bit for bit what it computes over a fresh one.
//
// Only what a run's result does not keep is lent. The one exception is
// Result.X, the arena's estimate row: the next run over the arena overwrites
// it, so a caller that keeps it copies it out first. Result.Trace, the
// recorded series and the async/chaos overlay are allocated per run.
//
// An arena serves one run at a time. A Backend handed one returns only once
// nothing the run started still reads what the arena lent (cluster.Backend
// waits for the agent calls its server stopped waiting for), so its caller
// may lend the arena to the next run as soon as Run returns.
//
// The zero value is ready to use. A nil Config.Arena gives the run a fresh
// arena of its own.
type Arena struct {
	round Round
	xdir  []float64
	input [][]float64

	col       Collector
	idx       []int
	rows      [][]float64
	grads     []float64
	into      []IntoAgent
	faulty    []IntoFaulty
	followers [][2]int

	wrappers []faulty

	// Substrate holds a backend's own per-run tables between runs — the p2p
	// backend keeps its liar table here. Only the backend
	// that stored a value reads it, by asserting its own type; any other
	// value (nil included) means the backend starts its tables afresh.
	Substrate any
}

// lend returns *buf as n zeroed entries, growing its backing only when it is
// shorter than n: an arena's tables grow monotonically. (p2p keeps its liar
// table with the same append.)
func lend[E any](buf *[]E, n int) []E {
	*buf = append((*buf)[:0], make([]E, n)...)
	return *buf
}

// WrapFaulty replaces each of agents with a Byzantine agent that distorts its
// report by behavior, as NewFaulty does; the wrappers share one backing lent
// by the arena. The sweep wraps a cell's first f agents this way, all with
// the cell's one behavior value. The wrappers stay the arena's: they are
// valid until the next WrapFaulty call on it.
func (a *Arena) WrapFaulty(agents []Agent, behavior byzantine.Behavior) error {
	return wrapFaulty(agents, lend(&a.wrappers, len(agents)), behavior)
}

// wrapFaulty is WrapFaulty over a given backing of len(agents) wrappers.
func wrapFaulty(agents []Agent, backing []faulty, behavior byzantine.Behavior) error {
	if behavior == nil {
		return fmt.Errorf("nil behavior: %w", ErrConfig)
	}
	into, ok := behavior.(byzantine.IntoBehavior)
	if !ok {
		into = asIntoBehavior{behavior}
	}
	for i, inner := range agents {
		f := &backing[i]
		*f = faulty{behavior: behavior, into: into}
		if f.inner, ok = inner.(IntoAgent); !ok && inner != nil {
			f.inner = asIntoAgent{inner}
		}
		agents[i] = f
	}
	return nil
}
