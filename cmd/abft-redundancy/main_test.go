package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestReadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "agents.csv")
	content := "# comment line\n1,0,0.9108\n0.8,0.5,1.3349\n\n0.5,0.8,1.3376\n"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	rows, b, err := readCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || len(b) != 3 {
		t.Fatalf("rows=%d responses=%d", len(rows), len(b))
	}
	if rows[1][0] != 0.8 || rows[1][1] != 0.5 || b[1] != 1.3349 {
		t.Fatalf("row 1 = %v, b = %v", rows[1], b[1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, _, err := readCSV(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
	dir := t.TempDir()
	short := filepath.Join(dir, "short.csv")
	if err := os.WriteFile(short, []byte("1\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCSV(short); err == nil {
		t.Error("single-field line should error")
	}
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("1,abc\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCSV(bad); err == nil {
		t.Error("non-numeric field should error")
	}
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, []byte("# only comments\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCSV(empty); err == nil {
		t.Error("empty file should error")
	}
}

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
	args := []string{"-paper", "-f", "1"}
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
	if err := run([]string{"-paper", "-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}); err == nil {
		t.Error("an unwritable -cpuprofile should error before the measurement")
	}
}

// TestPrintedSubsetCounts: the run prints the subsets it solves, those that
// remove f to 2f agents, and labels the proof's C(n, n-f)·(1 + C(n-f, n-2f))
// as the proof's: 21 and 36 on the paper's instance at f = 1, and C(7, 2) +
// C(7, 3) + C(7, 4) = 91 and 231 on seven agents at f = 2.
func TestPrintedSubsetCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agents.csv")
	rows := "1,0,0.9\n0.8,0.5,1.3\n0.5,0.8,1.3\n0,1,1\n-0.5,0.8,0.2\n-0.8,0.5,-0.4\n0.3,-0.9,0.7\n"
	if err := os.WriteFile(path, []byte(rows), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args          []string
		solved, proof int
	}{
		{[]string{"-paper", "-f", "1"}, 21, 36},
		{[]string{"-data", path, "-f", "2"}, 91, 231},
	} {
		want := fmt.Sprintf("this run solved\n%d subsets for eps and that output; the proof's algorithm performs %d subset minimizations.", c.solved, c.proof)
		if out := stdoutOf(t, c.args...); !bytes.Contains(out, []byte(want)) {
			t.Errorf("%v: output lacks %q:\n%s", c.args, want, out)
		}
	}
}

func TestRunPaperInstance(t *testing.T) {
	if err := run([]string{"-paper", "-f", "1"}); err != nil {
		t.Fatalf("run -paper: %v", err)
	}
	if err := run([]string{"-paper", "-f", "3"}); err == nil {
		t.Error("infeasible f should error")
	}
	if err := run(nil); err == nil {
		t.Error("missing input should error")
	}
}
