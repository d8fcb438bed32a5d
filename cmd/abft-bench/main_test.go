package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"byzopt/internal/sweep"
)

// stdoutOf returns what run(args) prints to standard output.
func stdoutOf(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		read <- data
	}()
	runErr := run(args)
	os.Stdout = saved
	_ = w.Close()
	out := <-read
	if runErr != nil {
		t.Fatalf("run %v: %v", args, runErr)
	}
	return out
}

// TestProfileFlags: -cpuprofile and -memprofile write two non-empty profiles
// and move no byte of standard output.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "heap.prof")
	args := []string{"-exp", "table1", "-rounds", "60", "-workers", "1"}
	plain := stdoutOf(t, args...)
	profiled := stdoutOf(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if len(plain) == 0 || !bytes.Equal(plain, profiled) {
		t.Errorf("stdout differs with -cpuprofile/-memprofile set:\n%s\nagainst\n%s", profiled, plain)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", p, err)
		}
	}
	if err := run([]string{"-exp", "appj", "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}); err == nil {
		t.Error("an unwritable -cpuprofile should error before the experiment")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunSmallFigureWithCSV(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "out")
	if err := run([]string{"-exp", "fig3", "-rounds", "5", "-csv", prefix}); err != nil {
		t.Fatal(err)
	}
	for _, fault := range []string{"gradient-reverse", "random"} {
		path := prefix + "-fig3-" + fault + ".csv"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing CSV %s: %v", path, err)
		}
		if len(data) == 0 {
			t.Errorf("empty CSV %s", path)
		}
	}
}

func TestRunTable1ViaSweep(t *testing.T) {
	if err := run([]string{"-exp", "table1", "-rounds", "60", "-workers", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGridWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := run([]string{"-exp", "grid", "-rounds", "20", "-workers", "4", "-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing JSON %s: %v", path, err)
	}
	if len(data) == 0 {
		t.Errorf("empty JSON %s", path)
	}
}

func TestRunAppendixJ(t *testing.T) {
	if err := run([]string{"-exp", "appj"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSVMSmall(t *testing.T) {
	if err := run([]string{"-exp", "svm", "-rounds", "20"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSVMDefaultRounds: without -rounds the SVM experiment takes its 300.
func TestRunSVMDefaultRounds(t *testing.T) {
	if err := run([]string{"-exp", "svm"}); err != nil {
		t.Fatal(err)
	}
}

// TestApproxMatchesGolden: -exp approx at four sweep workers exports the
// committed testdata/approx.json, written at one worker, byte for byte.
func TestApproxMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the approx grid (n = 100, d = 80, 15 cells of 60 rounds) takes a few seconds")
	}
	path := filepath.Join(t.TempDir(), "approx.json")
	stdoutOf(t, "-exp", "approx", "-workers", "4", "-json", path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "approx.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-exp approx export differs from testdata/approx.json (%d bytes, want %d); if the change is meant, regenerate it with `go run ./cmd/abft-bench -exp approx -workers 1 -json cmd/abft-bench/testdata/approx.json` and say so in CHANGES.md", len(got), len(want))
	}
}

// TestRunAllKeepsBothExports: grid, stepsweep and approx each export under
// -exp all to their own file; one path for all used to leave only the last.
func TestRunAllKeepsBothExports(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "all", "-rounds", "5", "-json", filepath.Join(dir, "out.json")}); err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"grid", "stepsweep", "approx"} {
		results, err := sweep.ReadJSONFile(filepath.Join(dir, "out-"+exp+".json"))
		if err != nil {
			t.Fatalf("%s export: %v", exp, err)
		}
		if len(results) == 0 {
			t.Errorf("%s export is empty", exp)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out.json")); err == nil {
		t.Error("-exp all also wrote the unsuffixed path")
	}
}
