package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRunEmitsSchema drives the command end to end on a small instance and
// checks the artifact schema.
func TestRunEmitsSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-n", "12", "-d", "16", "-f", "1", "-rounds", "5", "-sketch-dim", "4", "-pairs", "4", "-seed", "9"}
	if err := run(args, out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if rep.Schema != "byzopt-approx/1" {
		t.Errorf("schema %q, want byzopt-approx/1", rep.Schema)
	}
	if len(rep.Rows) != 4 {
		t.Errorf("%d rows, want 4", len(rep.Rows))
	}
	if rep.Config.N != 12 || rep.Config.SketchDim != 4 {
		t.Errorf("config not echoed: %+v", rep.Config)
	}
}

// TestRunRejectsBadConfig: an infeasible f must surface as an error, not a
// malformed artifact.
func TestRunRejectsBadConfig(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "out.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = out.Close() }()
	if err := run([]string{"-n", "9", "-f", "3"}, out); err == nil {
		t.Error("n=9 f=3 must be rejected (n <= 3f)")
	}
}

// TestDefaultRunMatchesGolden: the default flags reproduce the committed
// report byte for byte — the accuracy table the README quotes.
func TestDefaultRunMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the default instance (n=50, d=1000, 60 rounds) takes a few seconds")
	}
	path := filepath.Join(t.TempDir(), "out.json")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(nil, out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "approx_default.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("default run differs from testdata/approx_default.json (%d bytes, want %d); if the change is meant, regenerate it with `go run ./cmd/abft-approx` and say so in CHANGES.md", len(got), len(want))
	}
}

// TestRunIsTheConfigItPrints: -f 0 runs f = 0 and says so. The flag defaults
// are the only defaults, so a zero is a value and not a request for the
// default f = 5: its rows are not the default run's.
func TestRunIsTheConfigItPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("the default instance (n=50, d=1000, 60 rounds) takes a few seconds")
	}
	path := filepath.Join(t.TempDir(), "out.json")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-f", "0"}, out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"f": 0,`)) {
		t.Errorf("-f 0 report does not show f = 0:\n%s", raw)
	}
	var got, def report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "approx_default.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &def); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got.Rows, def.Rows) {
		t.Error("-f 0 reproduced the default run's rows: it ran f = 5")
	}
}
