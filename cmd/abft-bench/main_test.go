package main

import (
	"os"
	"path/filepath"
	"testing"

	"byzopt/internal/sweep"
)

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

// TestRunAllKeepsBothExports: grid and stepsweep both export under -exp all,
// each to its own file; one path for both used to leave only the second.
func TestRunAllKeepsBothExports(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "all", "-rounds", "5", "-json", filepath.Join(dir, "out.json")}); err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"grid", "stepsweep"} {
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
