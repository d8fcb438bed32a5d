package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WriteJSON writes the results as an indented JSON array. Wall-clock
// times vary run to run, so they are stripped unless includeTiming is
// set; without them the output of the same Spec is byte-identical at any
// worker count, which the determinism tests (and any caching layer
// keyed on it) rely on.
func WriteJSON(w io.Writer, results []Result, includeTiming bool) error {
	out := results
	if !includeTiming {
		out = make([]Result, len(results))
		copy(out, results)
		for i := range out {
			out[i].WallMS = 0
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteJSONFile writes the WriteJSON export to a file, the shared export
// path of the CLIs. The write is atomic — the bytes land in a temp file in
// the target's directory and are renamed into place — so a crash or a full
// disk mid-write can never leave a truncated, unparseable export behind
// where a previous good one stood (shard merging and checkpoint snapshots
// both rely on this: a path either holds a complete export or its prior
// contents).
func WriteJSONFile(path string, results []Result, includeTiming bool) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := WriteJSON(f, results, includeTiming); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// CreateTemp opens 0600; match the permissions a plain os.Create export
	// would have carried.
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// ReadJSONFile reads a WriteJSON export back, the input side of shard
// merging.
func ReadJSONFile(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// MergeResults recombines shard results into the full-grid result list:
// results are reordered by GridIndex and must cover the full grid size every
// result records (GridTotal) exactly once, with pairwise-distinct scenario
// keys — so missing shards (including trailing ones) are an error, never a
// silently truncated "full" export. Because every Result is a pure function
// of the Spec and its grid position, merging the shards of a Spec and
// exporting with WriteJSON reproduces the unsharded export byte for byte,
// regardless of how the grid was split or in which order the shards are
// supplied.
func MergeResults(shards ...[]Result) ([]Result, error) {
	var supplied, total int
	for _, shard := range shards {
		supplied += len(shard)
		for i := range shard {
			if t := shard[i].GridTotal; t > total {
				total = t
			}
		}
	}
	if supplied == 0 {
		return nil, fmt.Errorf("merge: no results: %w", ErrSpec)
	}
	if supplied != total {
		return nil, fmt.Errorf("merge: %d results for a grid of %d scenarios (missing or extra shard?): %w",
			supplied, total, ErrSpec)
	}
	merged := make([]Result, total)
	seen := make([]bool, total)
	keys := make(map[string]int, total)
	for _, shard := range shards {
		for i := range shard {
			r := shard[i]
			if r.GridTotal != total {
				return nil, fmt.Errorf("merge: shards disagree on grid size (%d vs %d at %s): %w",
					r.GridTotal, total, r.Key(), ErrSpec)
			}
			if r.GridIndex < 0 || r.GridIndex >= total {
				return nil, fmt.Errorf("merge: grid index %d outside 0..%d: %w",
					r.GridIndex, total-1, ErrSpec)
			}
			if seen[r.GridIndex] {
				return nil, fmt.Errorf("merge: duplicate grid index %d (%s): %w", r.GridIndex, r.Key(), ErrSpec)
			}
			if prev, dup := keys[r.Key()]; dup {
				return nil, fmt.Errorf("merge: scenario %s appears at grid indices %d and %d: %w",
					r.Key(), prev, r.GridIndex, ErrSpec)
			}
			keys[r.Key()] = r.GridIndex
			merged[r.GridIndex] = r
			seen[r.GridIndex] = true
		}
	}
	return merged, nil
}

// MergeJSONFiles reads shard exports and merges them; see MergeResults.
func MergeJSONFiles(paths ...string) ([]Result, error) {
	shards := make([][]Result, 0, len(paths))
	for _, path := range paths {
		results, err := ReadJSONFile(path)
		if err != nil {
			return nil, err
		}
		shards = append(shards, results)
	}
	return MergeResults(shards...)
}

// FormatTable renders the results as an aligned text table, one scenario
// per row. Cells that finished ("ok", and "degraded": completed while riding
// out injected faults) show their numbers; skipped/diverged/timeout/error
// rows show their status and reason instead. The ASYNC, CHAOS and SKETCH
// columns appear only when some result carries that axis, so the table of a
// grid without it is unchanged. A chaos grid also gets COST_X — final_dist
// over the final_dist of the cell that differs only in running fault-free,
// "-" when that cell is absent or did not finish — and a trailing per-run
// FAULTS tally. FILTER, BEHAVIOR and STEP are 14, 18 and 20 wide, or as wide
// as their longest cell.
func FormatTable(results []Result) string {
	type axisCol struct {
		header, zero string
		width        int // 0: as wide as the longest cell
		cell         func(*Result) string
	}
	axes := []axisCol{
		{"ASYNC", "sync", 38, func(r *Result) string { return r.Async }},
		{"CHAOS", "none", 0, func(r *Result) string { return r.Chaos }},
		{"SKETCH", "-", 6, func(r *Result) string {
			if r.SketchDim == 0 {
				return ""
			}
			return strconv.Itoa(r.SketchDim)
		}},
	}
	var shown []axisCol
	for _, ax := range axes {
		present, longest := false, len(ax.header)
		for i := range results {
			if cell := ax.cell(&results[i]); cell != "" {
				present = true
				longest = max(longest, len(cell))
			}
		}
		if ax.width == 0 {
			ax.width = longest
		}
		if present {
			shown = append(shown, ax)
		}
	}
	finished := func(r *Result) bool { return r.Status() == "ok" || r.Status() == "degraded" }
	// faultFree indexes the finished cells without injected faults, the
	// references COST_X divides by.
	chaosCol := false
	faultFree := map[Scenario]*Result{}
	for i := range results {
		if r := &results[i]; r.Chaos != "" {
			chaosCol = true
		} else if finished(r) {
			faultFree[r.Scenario] = r
		}
	}
	// Trace-metric columns follow the same conditional rule, sorted for
	// stability.
	var metricCols []string
	seenMetric := map[string]bool{}
	for i := range results {
		for name := range results[i].TraceMetrics {
			if !seenMetric[name] {
				seenMetric[name] = true
				metricCols = append(metricCols, name)
			}
		}
	}
	sort.Strings(metricCols)

	behaviorOf := func(r *Result) string {
		if r.Baseline {
			return "(baseline)"
		}
		return r.Behavior
	}
	filterW, behaviorW, stepW := 14, 18, 20
	for i := range results {
		r := &results[i]
		filterW = max(filterW, len(r.Filter))
		behaviorW = max(behaviorW, len(behaviorOf(r)))
		stepW = max(stepW, len(r.Step))
	}

	var b strings.Builder
	for _, ax := range shown {
		fmt.Fprintf(&b, "%-*s ", ax.width, ax.header)
	}
	fmt.Fprintf(&b, "%-*s %-*s %3s %4s %5s %-*s %10s %12s",
		filterW, "FILTER", behaviorW, "BEHAVIOR", "F", "N", "D", stepW, "STEP", "DIST", "LOSS")
	if chaosCol {
		fmt.Fprintf(&b, " %8s", "COST_X")
	}
	for _, name := range metricCols {
		fmt.Fprintf(&b, " %18s", strings.ToUpper(name))
	}
	if chaosCol {
		fmt.Fprintf(&b, " %9s %-8s %s", "WALL_MS", "STATUS", "FAULTS")
	} else {
		fmt.Fprintf(&b, " %9s %s", "WALL_MS", "STATUS")
	}
	b.WriteByte('\n')
	for i := range results {
		r := &results[i]
		for _, ax := range shown {
			cell := ax.cell(r)
			if cell == "" {
				cell = ax.zero
			}
			fmt.Fprintf(&b, "%-*s ", ax.width, cell)
		}
		fmt.Fprintf(&b, "%-*s %-*s %3d %4d %5d %-*s",
			filterW, r.Filter, behaviorW, behaviorOf(r), r.F, r.N, r.Dim, stepW, r.Step)
		if finished(r) {
			fmt.Fprintf(&b, " %10.4f %12.4f", r.FinalDist, r.LossFinal)
		} else {
			fmt.Fprintf(&b, " %10s %12s", "-", "-")
		}
		if chaosCol {
			ref := r.Scenario
			ref.Chaos = ""
			if base := faultFree[ref]; base != nil && base.FinalDist > 0 && finished(r) {
				fmt.Fprintf(&b, " %8.3f", r.FinalDist/base.FinalDist)
			} else {
				fmt.Fprintf(&b, " %8s", "-")
			}
		}
		for _, name := range metricCols {
			if v, ok := r.TraceMetrics[name]; ok {
				fmt.Fprintf(&b, " %18.6g", v)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		status := r.Status()
		if !finished(r) {
			status += " (" + r.Err + ")"
		}
		if chaosCol {
			faults := "-"
			if f := r.Faults; f != nil {
				faults = fmt.Sprintf("crash=%d omit=%d corrupt=%d dup=%d delay=%d retry=%d lost=%d",
					f.Crashed, f.Omitted, f.Corrupted, f.Duplicated, f.Delayed, f.Retried, f.LostRounds)
			}
			// Padded to "degraded", the longest status a tally can follow.
			status = fmt.Sprintf("%-8s %s", status, faults)
		}
		fmt.Fprintf(&b, " %9.1f %s", r.WallMS, status)
		b.WriteByte('\n')
	}
	return b.String()
}

// statusOrder ranks the engine's own statuses for summary lines; statuses
// it does not know about (added by layers above, like the coordinator's
// lease bookkeeping) sort after these, alphabetically.
var statusOrder = []string{"ok", "skipped", "diverged", "timeout", "error", "degraded"}

// Summarize counts results by status, for one-line sweep reports. The
// breakdown is derived from the statuses actually observed — never from a
// hardcoded list, so statuses introduced later still show up and the counts
// always add up to the total — in deterministic order: the engine's
// canonical statuses first, then anything else alphabetically. "ok" is
// always reported, even at zero.
func Summarize(results []Result) string {
	counts := map[string]int{}
	for i := range results {
		counts[results[i].Status()]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d scenarios: %d ok", len(results), counts["ok"])
	delete(counts, "ok")
	for _, status := range statusOrder[1:] {
		if n, seen := counts[status]; seen {
			fmt.Fprintf(&b, ", %d %s", n, status)
			delete(counts, status)
		}
	}
	extra := make([]string, 0, len(counts))
	for status := range counts {
		extra = append(extra, status)
	}
	sort.Strings(extra)
	for _, status := range extra {
		fmt.Fprintf(&b, ", %d %s", counts[status], status)
	}
	return b.String()
}
