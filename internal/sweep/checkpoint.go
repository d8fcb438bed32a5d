package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// Checkpoint is the coordinator's crash-safe record of completed grid
// cells: an append-only JSONL log (one compact Result per line, flushed per
// append) beside an atomic snapshot. Appends are cheap and survive being
// cut off mid-line — the loader ignores a torn trailing record — while the
// periodic Compact rewrites the snapshot through WriteJSONFile's
// temp-and-rename and then resets the log, so the pair of files always
// reconstructs exactly the set of completed cells no matter where a crash
// landed. Reopening a checkpoint is how an interrupted sweep resumes
// instead of restarting.
type Checkpoint struct {
	logPath  string
	snapPath string
	log      *os.File
	buf      bytes.Buffer
	// byIndex holds every completed cell keyed by grid index. Duplicates
	// (a reassigned cell completed twice, a crash between snapshot and log
	// reset) collapse: results are pure functions of the spec, so the first
	// record is as good as any.
	byIndex map[int]Result
	// sinceCompact counts appends since the last snapshot; Append compacts
	// every CompactEvery records so the log never grows unboundedly.
	sinceCompact int
	// CompactEvery is the automatic compaction interval in appended
	// records; 0 means DefaultCompactEvery, negative disables automatic
	// compaction (Compact can still be called explicitly).
	CompactEvery int
}

// DefaultCompactEvery is the automatic snapshot interval, in appended
// results.
const DefaultCompactEvery = 256

// SnapshotPath returns the snapshot path for a checkpoint log path.
func SnapshotPath(logPath string) string { return logPath + ".snapshot" }

// OpenCheckpoint opens (creating if absent) the checkpoint at path and
// loads every previously completed cell from the snapshot and the log. A
// torn trailing log line — the signature of a crash mid-append — is
// discarded and cut off the file, so the next append starts a line of its
// own; a torn snapshot is salvaged record by record (lost cells simply
// re-run); torn log records anywhere but the tail are stream corruption and
// error.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{
		logPath:  path,
		snapPath: SnapshotPath(path),
		byIndex:  make(map[int]Result),
	}
	if err := c.loadSnapshot(); err != nil {
		return nil, err
	}
	whole, err := c.loadLog()
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint log: %w", err)
	}
	if err := log.Truncate(whole); err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("checkpoint log: %w", err)
	}
	c.log = log
	return c, nil
}

// loadSnapshot replays the snapshot into byIndex, salvaging the whole
// records of a torn file. Snapshots are rewritten atomically, so under the
// crash model a complete file is the only outcome — but filesystem-level
// truncation (a torn sector, an interrupted copy) can still cut one
// mid-record, and every checkpoint record is recomputable from the spec.
// So the loader keeps the records that parse and lets resume re-run the
// rest, the same whole-records-survive rule the log loader applies; every
// salvaged record still passes through Validate before a resume trusts it.
func (c *Checkpoint) loadSnapshot() error {
	f, err := os.Open(c.snapPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint snapshot: %w", err)
	}
	defer func() { _ = f.Close() }()
	dec := json.NewDecoder(f)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return nil // no salvageable array at all: recompute everything
	}
	for dec.More() {
		var r Result
		if err := dec.Decode(&r); err != nil {
			return nil // torn mid-record: keep the whole records before it
		}
		c.byIndex[r.GridIndex] = r
	}
	return nil
}

// loadLog replays the JSONL log into byIndex and returns the length of its
// whole records: the offset just past the newline of the last one. A record
// is whole when it parses and its newline landed (Append writes both in one
// call).
func (c *Checkpoint) loadLog() (int64, error) {
	f, err := os.Open(c.logPath)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint log: %w", err)
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20) // trace-bearing results can be long lines
	var read, whole int64
	var ended bool // the line just scanned ended in a newline
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		n, line, err := bufio.ScanLines(data, atEOF)
		read += int64(n)
		ended = n > 0 && data[n-1] == '\n'
		return n, line, err
	})
	var torn bool
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if torn {
			return 0, fmt.Errorf("checkpoint log %s: record follows a torn line: %w", c.logPath, ErrSpec)
		}
		var r Result
		if !ended || json.Unmarshal(line, &r) != nil {
			// Only acceptable as the final line: a crash mid-append. If
			// another record follows, the file is corrupt, not torn.
			torn = true
			continue
		}
		c.byIndex[r.GridIndex] = r
		whole = read
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("checkpoint log %s: %w", c.logPath, err)
	}
	return whole, nil
}

// Results returns every recorded result in grid order.
func (c *Checkpoint) Results() []Result {
	out := make([]Result, 0, len(c.byIndex))
	for _, r := range c.byIndex {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GridIndex < out[j].GridIndex })
	return out
}

// Validate checks the checkpoint's contents against an expanded grid before
// a resume trusts it: every recorded cell must exist in the grid, agree on
// the grid total, and carry the scenario key the grid has at that index —
// so resuming a checkpoint against a different (or edited) Spec fails
// loudly instead of silently merging two sweeps.
func (c *Checkpoint) Validate(scenarios []Scenario) error {
	for idx, r := range c.byIndex {
		if idx < 0 || idx >= len(scenarios) {
			return fmt.Errorf("checkpoint cell %d outside grid of %d (different spec?): %w", idx, len(scenarios), ErrSpec)
		}
		if r.GridTotal != len(scenarios) {
			return fmt.Errorf("checkpoint grid total %d vs spec grid %d (different spec?): %w", r.GridTotal, len(scenarios), ErrSpec)
		}
		if want := scenarios[idx].Key(); r.Key() != want {
			return fmt.Errorf("checkpoint cell %d is %q but the spec expands to %q there (different spec?): %w",
				idx, r.Key(), want, ErrSpec)
		}
	}
	return nil
}

// Append records one completed cell: a compact JSON line written and synced
// before Append returns, then (on the compaction interval) folded into the
// snapshot. Re-appending an already-recorded index is a no-op.
func (c *Checkpoint) Append(r Result) error {
	if _, dup := c.byIndex[r.GridIndex]; dup {
		return nil
	}
	c.buf.Reset()
	enc := json.NewEncoder(&c.buf)
	if err := enc.Encode(&r); err != nil { // Encode appends the newline
		return fmt.Errorf("checkpoint append: %w", err)
	}
	if _, err := c.log.Write(c.buf.Bytes()); err != nil {
		return fmt.Errorf("checkpoint append: %w", err)
	}
	if err := c.log.Sync(); err != nil {
		return fmt.Errorf("checkpoint sync: %w", err)
	}
	c.byIndex[r.GridIndex] = r
	c.sinceCompact++
	every := c.CompactEvery
	if every == 0 {
		every = DefaultCompactEvery
	}
	if every > 0 && c.sinceCompact >= every {
		return c.Compact()
	}
	return nil
}

// Compact folds the log into the snapshot: the full completed set is
// written atomically (timings included, so resumed exports with -timings
// stay faithful), then the log is reset. A crash between the two leaves
// records present in both files, which the loader dedupes.
func (c *Checkpoint) Compact() error {
	if err := WriteJSONFile(c.snapPath, c.Results(), true); err != nil {
		return fmt.Errorf("checkpoint snapshot: %w", err)
	}
	if err := c.log.Truncate(0); err != nil {
		return fmt.Errorf("checkpoint log reset: %w", err)
	}
	if _, err := c.log.Seek(0, 0); err != nil {
		return fmt.Errorf("checkpoint log reset: %w", err)
	}
	c.sinceCompact = 0
	return nil
}

// Close compacts once more and releases the log handle.
func (c *Checkpoint) Close() error {
	if c.log == nil {
		return nil
	}
	compactErr := c.Compact()
	closeErr := c.log.Close()
	c.log = nil
	if compactErr != nil {
		return compactErr
	}
	return closeErr
}
