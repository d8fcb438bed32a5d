package sweep

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"byzopt/internal/chaos"
	"byzopt/internal/dgd"
)

// smallResults runs a tiny grid to get genuine results for store tests.
func smallResults(t *testing.T) []Result {
	t.Helper()
	results, err := Run(Spec{
		Filters:   []string{"cge", "cwtm"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1, 2},
		Rounds:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 4 {
		t.Fatalf("want >= 4 results, got %d", len(results))
	}
	return results
}

func scenariosOf(results []Result) []Scenario {
	out := make([]Scenario, len(results))
	for _, r := range results {
		out[r.GridIndex] = r.Scenario
	}
	return out
}

func TestCheckpointAppendReloadRoundTrip(t *testing.T) {
	results := smallResults(t)
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ckpt, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[:3] {
		if err := ckpt.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate appends collapse.
	if err := ckpt.Append(results[1]); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if len(re.byIndex) != 3 {
		t.Fatalf("reloaded %d cells, want 3", len(re.byIndex))
	}
	if err := re.Validate(scenariosOf(results)); err != nil {
		t.Fatal(err)
	}
	got := re.Results()
	for i, r := range got {
		if r.Key() != results[i].Key() || r.FinalDist != results[i].FinalDist {
			t.Errorf("cell %d mangled through the checkpoint: %+v", i, r)
		}
	}
	if _, ok := re.byIndex[results[3].GridIndex]; ok {
		t.Error("never-appended cell reported complete")
	}
}

// TestCheckpointTornTrailingLineTolerated: a crash mid-append leaves a
// truncated final JSONL line; reopening must keep every whole record and
// drop only the torn tail.
func TestCheckpointTornTrailingLineTolerated(t *testing.T) {
	results := smallResults(t)
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ckpt, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.CompactEvery = -1 // keep everything in the log for the truncation below
	for _, r := range results[:2] {
		if err := ckpt.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash before Close can compact: chop the log mid-record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = ckpt.log.Close() // abandon, as a crash would
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if len(re.byIndex) != 1 {
		t.Fatalf("torn log reloaded %d cells, want 1", len(re.byIndex))
	}
	if _, ok := re.byIndex[results[0].GridIndex]; !ok {
		t.Error("intact first record lost")
	}
}

// TestCheckpointTornMiddleLineRejected: garbage with records after it is
// corruption, not a crash signature.
func TestCheckpointTornMiddleLineRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	lines := "{\"grid_index\":0,\"grid_total\":2" + "\n" + `{"grid_index":1,"grid_total":2}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("mid-file corruption: %v", err)
	}
}

// TestCheckpointCompactFoldsLogIntoSnapshot: compaction must survive a
// reload through the snapshot alone, and the log must reset.
func TestCheckpointCompactFoldsLogIntoSnapshot(t *testing.T) {
	results := smallResults(t)
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ckpt, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.CompactEvery = 2 // compact mid-stream
	for _, r := range results {
		if err := ckpt.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Errorf("log after final compact: size=%v err=%v", fi.Size(), err)
	}
	snap, err := ReadJSONFile(SnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(results) {
		t.Fatalf("snapshot holds %d cells, want %d", len(snap), len(results))
	}
	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if len(re.byIndex) != len(results) {
		t.Errorf("reload after compact: %d cells, want %d", len(re.byIndex), len(results))
	}
}

// TestCheckpointValidateDetectsForeignSpec: resuming against a different
// spec must fail loudly — on grid size, on total, and on scenario key.
func TestCheckpointValidateDetectsForeignSpec(t *testing.T) {
	results := smallResults(t)
	scenarios := scenariosOf(results)
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ckpt, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ckpt.Close() }()
	if err := ckpt.Append(results[2]); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Validate(scenarios); err != nil {
		t.Fatalf("matching spec rejected: %v", err)
	}
	// Smaller grid: the recorded index falls outside.
	if err := ckpt.Validate(scenarios[:2]); !errors.Is(err, ErrSpec) {
		t.Errorf("foreign (smaller) grid: %v", err)
	}
	// Same size, different cell at the recorded index.
	swapped := append([]Scenario(nil), scenarios...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	if err := ckpt.Validate(swapped); !errors.Is(err, ErrSpec) {
		t.Errorf("foreign (reordered) grid: %v", err)
	}
}

// TestCheckpointValidateDetectsAsyncAxisChange: a checkpoint written under
// one async round model must not resume a sweep whose async axis differs —
// the async component is part of every scenario key.
func TestCheckpointValidateDetectsAsyncAxisChange(t *testing.T) {
	spec := Spec{
		Filters:   []string{"cge"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    10,
		Asyncs: []AsyncSpec{
			{Base: 1, Policy: dgd.CollectFirstK, K: 4, Stale: dgd.StaleReuse},
		},
	}
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ckpt, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ckpt.Close() }()
	if err := ckpt.Append(results[0]); err != nil {
		t.Fatal(err)
	}
	same, err := Scenarios(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Validate(same); err != nil {
		t.Fatalf("matching async axis rejected: %v", err)
	}
	// Same grid shape, different collection policy: the keys differ, so the
	// checkpoint must refuse to resume.
	retuned := spec
	retuned.Asyncs = []AsyncSpec{
		{Base: 1, Policy: dgd.CollectFirstK, K: 5, Stale: dgd.StaleReuse},
	}
	foreign, err := Scenarios(retuned)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Validate(foreign); !errors.Is(err, ErrSpec) {
		t.Errorf("foreign async axis: %v", err)
	}
	// Dropping the axis entirely (a synchronous resume) must refuse too.
	syncSpec := spec
	syncSpec.Asyncs = nil
	foreign, err = Scenarios(syncSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Validate(foreign); !errors.Is(err, ErrSpec) {
		t.Errorf("sync resume of an async checkpoint: %v", err)
	}
}

// resumeExactlyMissing resumes spec's grid from the checkpoint at path on
// the coordinator/worker fabric and asserts the run restored exactly
// `restored` cells, dispatched only the remainder, and exported
// byte-identically to want.
func resumeExactlyMissing(t *testing.T, spec Spec, path string, want []Result, restored int) {
	t.Helper()
	var mu sync.Mutex
	calls := 0
	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorSpec{
		Spec: spec, LeaseCells: 2, CheckpointPath: path,
		Progress: func(done, total int) {
			mu.Lock()
			calls++
			mu.Unlock()
		},
	})
	if err := Work(ctx, addr, WorkerOptions{Workers: 1}); err != nil {
		t.Fatalf("resume worker: %v", err)
	}
	got, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, want)) {
		t.Error("resumed export differs from single-process export")
	}
	// Progress fires once for the restored set, then once per cell actually
	// re-dispatched: a correct resume runs exactly the missing cells.
	mu.Lock()
	defer mu.Unlock()
	if wantCalls := 1 + len(want) - restored; calls != wantCalls {
		t.Errorf("resume made %d progress calls, want %d (restored %d of %d cells)",
			calls, wantCalls, restored, len(want))
	}
}

// TestCheckpointResumeAfterTornLogWrite injects a torn write into the
// checkpoint log via the chaos layer's TornWriter — the third record's tail
// never reaches the disk, as if the process died mid-flush — and asserts the
// resumed sweep re-dispatches exactly the torn-away cell plus the never-run
// ones, exporting byte-identically to a single-process run.
func TestCheckpointResumeAfterTornLogWrite(t *testing.T) {
	spec := testGridSpec()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ckpt, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.CompactEvery = -1 // keep every record in the log for the tear below
	for _, r := range want[:3] {
		if err := ckpt.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = ckpt.log.Close() // abandon, as a crash would
	// Replay the same appends through the torn-write hook: the prefix lands,
	// the final record's last bytes are silently lost.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := &chaos.TornWriter{W: f, Limit: len(data) - 10}
	if _, err := tw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resumeExactlyMissing(t, spec, path, want, 2)
}

// TestCheckpointResumeAfterTwoCrashes: a coordinator that crashes mid-append,
// resumes, appends more cells and crashes again (no Close, so nothing is
// compacted) must resume a second time with every whole record — the one
// appended right after the torn line included. Reopening truncates the log
// to its last whole record, so the first append after a tear starts a line
// of its own instead of completing the torn one.
func TestCheckpointResumeAfterTwoCrashes(t *testing.T) {
	spec := testGridSpec()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ckpt, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.CompactEvery = -1
	for _, r := range want[:3] {
		if err := ckpt.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	_ = ckpt.log.Close() // the first crash
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.TearFile(path, info.Size()-10); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.byIndex) != 2 {
		t.Fatalf("first resume restored %d cells, want 2", len(re.byIndex))
	}
	re.CompactEvery = -1
	for _, r := range want[2:6] { // cell 2 again, right after the tear
		if err := re.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	_ = re.log.Close() // the second crash

	again, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if len(again.byIndex) != 6 {
		t.Errorf("second resume restored %d cells, want 6", len(again.byIndex))
	}
	for _, r := range again.Results() {
		if r.Key() != want[r.GridIndex].Key() || r.FinalDist != want[r.GridIndex].FinalDist {
			t.Errorf("cell %d mangled through two crashes: %+v", r.GridIndex, r)
		}
	}
	_ = again.log.Close()

	resumeExactlyMissing(t, spec, path, want, 6)
}

// TestCheckpointResumeAfterTornSnapshot tears the compacted snapshot
// mid-record via chaos.TearFile: the loader must salvage the whole records
// before the tear and the resumed sweep must re-run exactly the rest.
func TestCheckpointResumeAfterTornSnapshot(t *testing.T) {
	spec := testGridSpec()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ckpt, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want[:4] {
		if err := ckpt.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ckpt.Close(); err != nil { // compacts: all four records move to the snapshot
		t.Fatal(err)
	}
	snap := SnapshotPath(path)
	info, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.TearFile(snap, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	// The salvage keeps a whole-record prefix: strictly fewer than the four
	// compacted cells, but not none.
	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	salvaged := len(re.byIndex)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if salvaged == 0 || salvaged >= 4 {
		t.Fatalf("torn snapshot salvaged %d cells, want within (0, 4)", salvaged)
	}
	for _, r := range re.Results() {
		if r.Key() != want[r.GridIndex].Key() {
			t.Errorf("salvaged cell %d carries key %q, want %q", r.GridIndex, r.Key(), want[r.GridIndex].Key())
		}
	}

	resumeExactlyMissing(t, spec, path, want, salvaged)
}

// TestWriteJSONFileAtomic: a failed export must leave a pre-existing file
// untouched and no temp debris behind.
func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	good := []Result{{Scenario: Scenario{Filter: "cge"}, GridTotal: 1}}
	if err := WriteJSONFile(path, good, false); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// NaN is not representable in JSON: the encode fails after the temp
	// file exists, exercising the cleanup path.
	bad := []Result{{FinalDist: math.NaN()}}
	if err := WriteJSONFile(path, bad, false); err == nil {
		t.Fatal("NaN export should fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("failed export clobbered the previous good file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp debris left behind: %v", entries)
	}
}

// TestSummarizeDerivesObservedStatuses: the breakdown must come from the
// statuses present — no hardcoded zero buckets, deterministic order.
func TestSummarizeDerivesObservedStatuses(t *testing.T) {
	mk := func(status string) Result {
		var r Result
		switch status {
		case "skipped":
			r.Skipped = true
		case "diverged":
			r.Diverged = true
		case "timeout":
			r.TimedOut = true
		case "error":
			r.Err = "boom"
		}
		return r
	}
	if got := Summarize([]Result{mk("ok"), mk("ok")}); got != "2 scenarios: 2 ok" {
		t.Errorf("all-ok summary = %q", got)
	}
	got := Summarize([]Result{mk("ok"), mk("timeout"), mk("skipped"), mk("timeout")})
	want := "4 scenarios: 1 ok, 1 skipped, 2 timeout"
	if got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
	if got := Summarize(nil); got != "0 scenarios: 0 ok" {
		t.Errorf("empty summary = %q", got)
	}
}
