package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"byzopt/internal/sweep"
)

func TestRunSmallGridWritesDeterministicJSON(t *testing.T) {
	dir := t.TempDir()
	read := func(workers string) []byte {
		t.Helper()
		path := filepath.Join(dir, "out-"+workers+".json")
		err := run(context.Background(), []string{
			"-filters", "cge,cwtm", "-behaviors", "gradient-reverse,random",
			"-f", "1,2", "-rounds", "30", "-workers", workers,
			"-json", path, "-quiet",
		}, os.Stdout)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq, par := read("1"), read("8")
	if !bytes.Equal(seq, par) {
		t.Error("JSON differs between -workers 1 and -workers 8")
	}
	var results []map[string]any
	if err := json.Unmarshal(seq, &results); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(results) != 8 {
		t.Errorf("2 filters x 2 behaviors x 2 f-values should give 8 results, got %d", len(results))
	}
}

func TestRunPaperProblem(t *testing.T) {
	if err := run(context.Background(), []string{
		"-problem", "paper", "-filters", "cge", "-behaviors", "gradient-reverse",
		"-rounds", "50",
	}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunStepSweepAndBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{
		"-filters", "cwtm", "-behaviors", "zero", "-rounds", "10", "-steps", "0.05", "-quiet",
	}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-f", "x"}, os.Stdout); err == nil {
		t.Error("bad -f should error")
	}
	if err := run(ctx, []string{"-filters", "bogus"}, os.Stdout); err == nil {
		t.Error("unknown filter should error")
	}
	if err := run(ctx, []string{"-steps", "abc"}, os.Stdout); err == nil {
		t.Error("bad -steps should error")
	}
	if err := run(ctx, []string{"-backend", "bogus"}, os.Stdout); err == nil {
		t.Error("unknown backend should error")
	}
}

// TestRunLearningProblem: -problem accepts any registered name; the
// learning workload must run end to end and export its accuracy metric.
func TestRunLearningProblem(t *testing.T) {
	path := filepath.Join(t.TempDir(), "learn.json")
	err := run(context.Background(), []string{
		"-problem", "learning", "-filters", "cwtm,cge-avg", "-behaviors", "label-flip,gradient-reverse",
		"-f", "3", "-n", "10", "-d", "20", "-rounds", "4", "-baseline", "-quiet", "-json", path,
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Problem  string  `json:"problem"`
		Baseline bool    `json:"baseline"`
		Metric   string  `json:"metric"`
		Final    float64 `json:"metric_final"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatal(err)
	}
	// 2 filters x 2 behaviors + 2 baseline cells.
	if len(results) != 6 {
		t.Fatalf("%d results, want 6", len(results))
	}
	var baselines int
	for _, r := range results {
		if r.Problem != "learning" || r.Metric != "test_accuracy" || r.Final <= 0 {
			t.Errorf("unexpected result %+v", r)
		}
		if r.Baseline {
			baselines++
		}
	}
	if baselines != 2 {
		t.Errorf("%d baseline cells, want 2", baselines)
	}
}

// TestShardMergeRoundTripsByteIdentically is the CLI acceptance guarantee:
// running the same spec as -shard slices and recombining the exports with
// -merge reproduces the unsharded JSON byte for byte, even with the shard
// files supplied out of order.
func TestShardMergeRoundTripsByteIdentically(t *testing.T) {
	dir := t.TempDir()
	args := func(extra ...string) []string {
		base := []string{
			"-problem", "learning", "-filters", "cwtm,cge-avg",
			"-behaviors", "label-flip,gradient-reverse", "-f", "3", "-n", "10",
			"-d", "20", "-rounds", "3", "-baseline", "-quiet",
		}
		return append(base, extra...)
	}
	full := filepath.Join(dir, "full.json")
	if err := run(context.Background(), args("-json", full), os.Stdout); err != nil {
		t.Fatal(err)
	}
	shardPaths := make([]string, 3)
	for i := range shardPaths {
		shardPaths[i] = filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		if err := run(context.Background(),
			args("-shard", fmt.Sprintf("%d/3", i), "-json", shardPaths[i]), os.Stdout); err != nil {
			t.Fatal(err)
		}
	}
	merged := filepath.Join(dir, "merged.json")
	if err := run(context.Background(), []string{
		"-merge", "-quiet", "-json", merged,
		shardPaths[2], shardPaths[0], shardPaths[1], // scrambled on purpose
	}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("merged shard export differs from the unsharded export")
	}
}

func TestShardAndMergeBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-shard", "2"}, os.Stdout); err == nil {
		t.Error("malformed -shard should error")
	}
	if err := run(ctx, []string{"-shard", "3/2"}, os.Stdout); err == nil {
		t.Error("out-of-range -shard should error")
	}
	if err := run(ctx, []string{"-merge"}, os.Stdout); err == nil {
		t.Error("-merge without files should error")
	}
	if err := run(ctx, []string{"-merge", filepath.Join(t.TempDir(), "missing.json")}, os.Stdout); err == nil {
		t.Error("-merge with a missing file should error")
	}
}

// TestRunClusterBackendMatchesInProcess: the CLI's -backend flag must not
// change the exported JSON for a fault-free grid — the backend-parity
// guarantee surfaced at the command level, for every substrate the flag
// accepts.
func TestRunClusterBackendMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	read := func(backend string) []byte {
		t.Helper()
		path := filepath.Join(dir, "out-"+backend+".json")
		err := run(context.Background(), []string{
			"-filters", "cge,cwtm,mean", "-f", "0", "-rounds", "40",
			"-backend", backend, "-json", path, "-quiet",
		}, os.Stdout)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	inprocess := read("inprocess")
	for _, backend := range []string{"cluster", "p2p"} {
		if !bytes.Equal(inprocess, read(backend)) {
			t.Errorf("fault-free JSON differs between -backend inprocess and -backend %s", backend)
		}
	}
}

// TestRunTimeoutClassifiesSlowScenario pits -timeout against a deliberately
// slow problem (a large, long-running synthetic grid point): the scenario
// must come back classified as "timeout" in the JSON export — like
// divergence, data rather than a sweep failure.
func TestRunTimeoutClassifiesSlowScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	err := run(context.Background(), []string{
		// ~50 agents x 24 dims x 200k rounds is far beyond a 20ms budget,
		// and the round loop checks the deadline every iteration.
		"-filters", "mean", "-behaviors", "zero", "-n", "48", "-d", "24",
		"-rounds", "200000", "-timeout", "20ms", "-json", path, "-quiet",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		TimedOut bool   `json:"timed_out"`
		Err      string `json:"error"`
	}
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(results) != 1 || !results[0].TimedOut {
		t.Fatalf("want one timed-out result, got %+v", results)
	}
	if results[0].Err == "" {
		t.Error("timeout result should carry a reason")
	}
}

// TestRunCancelledSweepExportsPartialResults: a cancelled CLI run must
// still export the scenarios completed so far and report the cancellation.
func TestRunCancelledSweepExportsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	path := filepath.Join(t.TempDir(), "out.json")
	err := run(ctx, []string{
		"-filters", "cge", "-behaviors", "zero", "-rounds", "10",
		"-json", path, "-quiet",
	}, os.Stdout)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal("cancelled run should still write the JSON export:", err)
	}
	var results []map[string]any
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(results) != 0 {
		t.Errorf("pre-cancelled run should export zero scenarios, got %d", len(results))
	}
}

// TestCoordinatorWorkerFleetMatchesLocalRun is the fleet acceptance
// guarantee at the CLI level: a coordinator plus two -worker processes must
// export byte-identical JSON to a plain local run of the same flags.
func TestCoordinatorWorkerFleetMatchesLocalRun(t *testing.T) {
	dir := t.TempDir()
	// Enough rounds that the first worker cannot finish all eight cells (some
	// 20 ms) before the second has dialed: the coordinator closes its listener
	// with the grid, and a worker arriving after that fails.
	gridFlags := []string{
		"-filters", "cge,cwtm", "-behaviors", "gradient-reverse,random",
		"-f", "1,2", "-rounds", "5000", "-quiet",
	}

	local := filepath.Join(dir, "local.json")
	if err := run(context.Background(),
		append(gridFlags, "-json", local), os.Stdout); err != nil {
		t.Fatal(err)
	}

	fleet := filepath.Join(dir, "fleet.json")
	addrFile := filepath.Join(dir, "addr")
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- run(context.Background(), append(gridFlags,
			"-coordinator", "127.0.0.1:0", "-addr-file", addrFile,
			"-lease-cells", "2", "-json", fleet), os.Stdout)
	}()
	// The coordinator writes the bound address before accepting workers.
	var addr string
	for i := 0; i < 200; i++ {
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("coordinator never published its address")
	}

	workerDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			workerDone <- run(context.Background(),
				[]string{"-worker", addr, "-quiet", "-workers", "1"}, os.Stdout)
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
	if err := <-coordDone; err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fleet export differs from the local export")
	}
}

func TestFleetModeBadFlags(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-worker", "x", "-coordinator", ":0"}, os.Stdout); err == nil {
		t.Error("-worker with -coordinator should error")
	}
	if err := run(ctx, []string{"-worker", "x", "-json", "out.json"}, os.Stdout); err == nil {
		t.Error("-worker with -json should error")
	}
	if err := run(ctx, []string{"-coordinator", ":0", "-timeout", "1s"}, os.Stdout); err == nil {
		t.Error("-coordinator with -timeout should error")
	}
	if err := run(ctx, []string{"-coordinator", ":0", "-backend", "cluster"}, os.Stdout); err == nil {
		t.Error("-coordinator with a non-inprocess backend should error")
	}
	if err := run(ctx, []string{"-coordinator", ":0", "-shard", "0/2"}, os.Stdout); err == nil {
		t.Error("-coordinator with -shard should error")
	}
}

// TestRunChaosAxisFlags: the -chaos axis parses the canonical plan syntax,
// exports degraded statuses with fault counters deterministically at any
// -workers value, and malformed plans or orphaned -chaos-with-none error.
func TestRunChaosAxisFlags(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	read := func(workers string) []byte {
		t.Helper()
		path := filepath.Join(dir, "chaos-"+workers+".json")
		err := run(ctx, []string{
			"-filters", "cge", "-behaviors", "gradient-reverse", "-rounds", "15",
			"-chaos", "omit:0.2+retry:2:0.1,crash:0.3", "-chaos-with-none",
			"-workers", workers, "-json", path, "-quiet",
		}, os.Stdout)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq, par := read("1"), read("8")
	if !bytes.Equal(seq, par) {
		t.Error("chaos JSON differs between -workers 1 and -workers 8")
	}
	var results []map[string]any
	if err := json.Unmarshal(seq, &results); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("1 filter x 3 chaos points should give 3 results, got %d", len(results))
	}
	wantChaos := map[string]bool{"": true, "omit:0.2+retry:2:0.1": true, "crash:0.3": true}
	degraded := 0
	for _, r := range results {
		key, _ := r["chaos"].(string)
		if !wantChaos[key] {
			t.Errorf("unexpected chaos identity %q", key)
		}
		if r["degraded"] == true {
			degraded++
			if r["faults"] == nil {
				t.Errorf("degraded cell %q exports no fault counters", key)
			}
		} else if key == "" && r["faults"] != nil {
			t.Errorf("fault-free cell exports fault counters")
		}
	}
	if degraded == 0 {
		t.Error("no cell degraded; the chaos axis injected nothing")
	}

	// The omission soak of the retired chaos-soak binary (-filters cge,cwtm
	// -rounds 50 -rates 0.1,0.2), as the flags that replace it: its six
	// distances and three tallies, bit for bit.
	soakPath := filepath.Join(dir, "soak.json")
	if err := run(ctx, []string{
		"-filters", "cge,cwtm", "-behaviors", "gradient-reverse", "-rounds", "50",
		"-chaos", "omit:0.1,omit:0.2", "-chaos-with-none", "-json", soakPath, "-quiet",
	}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	soak, err := sweep.ReadJSONFile(soakPath)
	if err != nil {
		t.Fatal(err)
	}
	wantSoak := []struct {
		filter, chaos, status string
		dist                  float64
		omitted               int
	}{
		{"cge", "", "ok", 0.11455489400577831, 0},
		{"cge", "omit:0.1", "degraded", 0.11991393892599785, 42},
		{"cge", "omit:0.2", "degraded", 0.19473577195513347, 52},
		{"cwtm", "", "ok", 0.37136061622475164, 0},
		{"cwtm", "omit:0.1", "degraded", 0.34533151796794154, 22},
		{"cwtm", "omit:0.2", "skipped", 0, 0},
	}
	if len(soak) != len(wantSoak) {
		t.Fatalf("soak grid has %d cells, want %d", len(soak), len(wantSoak))
	}
	for i, want := range wantSoak {
		got := soak[i]
		omitted := 0
		if got.Faults != nil {
			omitted = got.Faults.Omitted
		}
		if got.Filter != want.filter || got.Chaos != want.chaos || got.Status() != want.status ||
			got.FinalDist != want.dist || omitted != want.omitted {
			t.Errorf("soak cell %d: %s/%q %s dist %v omitted %d, want %+v",
				i, got.Filter, got.Chaos, got.Status(), got.FinalDist, omitted, want)
		}
	}

	if err := run(ctx, []string{"-chaos", "omit:0.2:9"}, os.Stdout); err == nil {
		t.Error("malformed -chaos term should error")
	}
	if err := run(ctx, []string{"-chaos", "gamma:0.2"}, os.Stdout); err == nil {
		t.Error("unknown -chaos fault kind should error")
	}
	if err := run(ctx, []string{"-chaos", "omit:1.5"}, os.Stdout); err == nil {
		t.Error("out-of-range -chaos rate should error")
	}
	if err := run(ctx, []string{"-chaos-with-none"}, os.Stdout); err == nil {
		t.Error("-chaos-with-none without -chaos should error")
	}
}

// TestProfileFlagsLeaveTheExportAlone: -cpuprofile and -memprofile write two
// non-empty profiles and move no byte of the JSON.
func TestProfileFlagsLeaveTheExportAlone(t *testing.T) {
	dir := t.TempDir()
	export := func(name string, extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{
			"-filters", "krum,cwtm", "-behaviors", "alie", "-n", "12", "-f", "1,2", "-rounds", "30",
			"-workers", "1", "-json", path, "-quiet",
		}, extra...)
		if err := run(context.Background(), args, os.Stdout); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "heap.prof")
	if !bytes.Equal(export("plain.json"), export("profiled.json", "-cpuprofile", cpu, "-memprofile", mem)) {
		t.Error("JSON differs with -cpuprofile/-memprofile set")
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", p, err)
		}
	}
	if err := run(context.Background(), []string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}, os.Stdout); err == nil {
		t.Error("an unwritable -cpuprofile should error before the sweep")
	}
}
