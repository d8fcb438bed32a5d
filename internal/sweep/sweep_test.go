package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/linreg"
)

// smallSpec is the shared fixture: a real multi-axis grid that still runs
// in well under a second.
func smallSpec() Spec {
	return Spec{
		Filters:   []string{"mean", "cge", "cwtm", "krum"},
		Behaviors: []string{"gradient-reverse", "random"},
		FValues:   []int{1, 2},
		Rounds:    60,
	}
}

func TestExpandDefaultsCoverFullRegistry(t *testing.T) {
	scns, err := Scenarios(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(aggregate.Names()) * len(byzantine.Names())
	if len(scns) != want {
		t.Fatalf("zero spec expanded to %d scenarios, want %d", len(scns), want)
	}
	keys := make(map[string]bool, len(scns))
	for _, s := range scns {
		if keys[s.Key()] {
			t.Errorf("duplicate scenario %s", s.Key())
		}
		keys[s.Key()] = true
		if s.Rounds != linreg.Rounds || s.N != linreg.N || s.Dim != linreg.Dim {
			t.Errorf("defaults not applied: %+v", s)
		}
	}
}

func TestExpandCollapsesBehaviorAxisAtFZero(t *testing.T) {
	scns, err := Scenarios(Spec{FValues: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(aggregate.Names()); len(scns) != want {
		t.Fatalf("f=0 grid has %d scenarios, want %d (one per filter)", len(scns), want)
	}
	for _, s := range scns {
		if s.Behavior != BehaviorNone {
			t.Errorf("f=0 scenario kept behavior %q", s.Behavior)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown filter", Spec{Filters: []string{"bogus"}}},
		{"unknown behavior", Spec{Behaviors: []string{"bogus"}}},
		{"unknown problem", Spec{Problem: "bogus"}},
		{"paper wrong n", Spec{Problem: ProblemPaper, NValues: []int{8}}},
		{"paper wrong d", Spec{Problem: ProblemPaper, Dims: []int{3}}},
		{"negative f", Spec{FValues: []int{-1}}},
		{"negative rounds", Spec{Rounds: -5}},
		{"zero n", Spec{NValues: []int{0}}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.spec); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: want ErrSpec, got %v", tc.name, err)
		}
	}
}

func TestDeriveSeedIsStableAndDistinct(t *testing.T) {
	a := Scenario{Problem: "synthetic", Filter: "cge", Behavior: "random", F: 1, N: 6, Dim: 2, Step: "x", Rounds: 10}
	b := a
	b.F = 2
	if a.DeriveSeed(7) != a.DeriveSeed(7) {
		t.Error("seed not stable across calls")
	}
	if a.DeriveSeed(7) == b.DeriveSeed(7) {
		t.Error("distinct scenarios share a seed")
	}
	if a.DeriveSeed(7) == a.DeriveSeed(8) {
		t.Error("base seed ignored")
	}
}

// TestDeriveSeedIsFNVOfKey: DeriveSeed is 64-bit FNV-1a over Key() and then
// the base seed's little-endian bytes — hash/fnv below is the reference — on
// randomized scenarios that carry each optional key suffix (baseline, async,
// sketch, chaos) in every combination, and a seed allocates nothing.
func TestDeriveSeedIsFNVOfKey(t *testing.T) {
	reference := func(s Scenario, base int64) int64 {
		h := fnv.New64a()
		io.WriteString(h, s.Key())
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(base))
		h.Write(b[:])
		return int64(h.Sum64())
	}
	r := rand.New(rand.NewSource(1))
	pick := func(opts ...string) string { return opts[r.Intn(len(opts))] }
	num := func() int { return r.Intn(2001) - 1000 }
	var sink int64
	for i := 0; i < 512; i++ {
		s := Scenario{
			Problem:  pick(ProblemPaper, ProblemSynthetic, "learning-mlp", ""),
			Filter:   pick("cge", "cwtm", "krum-sketch", "multikrum"),
			Behavior: pick("gradient-reverse", "alie", BehaviorNone, "random"),
			F:        num(), N: num(), Dim: num(),
			Step:   pick("diminishing-1.5-1", "constant-0.01", ""),
			Rounds: num(),
		}
		// Bits 0-3 of i switch the four optional suffixes on and off.
		s.Baseline = i&1 != 0
		if i&2 != 0 {
			s.Async = pick("fixed:0:wait-all:drop", "uniform:1:0.5:quorum:5:reuse:3")
		}
		if i&4 != 0 {
			s.SketchDim = num()
		}
		if i&8 != 0 {
			s.Chaos = pick("omit:0.1", "crash:0.05+omit:0.2+retry:3:2")
		}
		base := r.Int63() - r.Int63()
		if got, want := s.DeriveSeed(base), reference(s, base); got != want {
			t.Fatalf("%q at base %d: DeriveSeed %d, FNV-1a %d", s.Key(), base, got, want)
		}
		if raceEnabled {
			continue // exact allocation counts do not repeat under the race detector
		}
		if allocs := testing.AllocsPerRun(5, func() { sink = s.DeriveSeed(base) }); allocs != 0 {
			t.Fatalf("%q: DeriveSeed allocates %v times, want 0", s.Key(), allocs)
		}
	}
	_ = sink
}

// TestRunDeterministicAcrossWorkers is the engine's core guarantee: the
// same spec, run with 1 sweep worker or 8, exports byte-identical JSON.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	encode := func(spec Spec) []byte {
		t.Helper()
		results, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, results, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// The second grid runs every registered behavior: the Byzantine wrappers
	// rewrite arena rows in place, in cells that run side by side.
	allBehaviors := func() Spec {
		spec := smallSpec()
		spec.Behaviors = byzantine.Names()
		return spec
	}
	for _, build := range []func() Spec{smallSpec, allBehaviors} {
		base := build()
		base.Workers = 1
		want := encode(base)

		parallel := build()
		parallel.Workers = 8
		if got := encode(parallel); !bytes.Equal(got, want) {
			t.Error("Workers=8 JSON differs from Workers=1")
		}
	}
}

func TestWriteJSONStripsTimingByDefault(t *testing.T) {
	results := []Result{{Scenario: Scenario{Filter: "cge"}, WallMS: 12.5}}
	var stripped, timed bytes.Buffer
	if err := WriteJSON(&stripped, results, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&timed, results, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stripped.String(), "wall_ms") {
		t.Error("timing leaked into deterministic export")
	}
	if !strings.Contains(timed.String(), "wall_ms") {
		t.Error("includeTiming did not export wall_ms")
	}
	if results[0].WallMS != 12.5 {
		t.Error("WriteJSON mutated the caller's results")
	}
}

// TestPaperGridReproducesSection5 runs the paper's own grid corner: on the
// Appendix-J instance, CGE under gradient-reverse must land within the
// instance's redundancy parameter epsilon = 0.089 of x_H, while unfiltered
// averaging must not.
func TestPaperGridReproducesSection5(t *testing.T) {
	results, err := Run(Spec{
		Problem:   ProblemPaper,
		Filters:   []string{"cge", "mean"},
		Behaviors: []string{"gradient-reverse"},
	})
	if err != nil {
		t.Fatal(err)
	}
	byFilter := map[string]Result{}
	for _, r := range results {
		byFilter[r.Filter] = r
	}
	cge, mean := byFilter["cge"], byFilter["mean"]
	if cge.Status() != "ok" || mean.Status() != "ok" {
		t.Fatalf("unexpected statuses: cge=%s mean=%s", cge.Status(), mean.Status())
	}
	const epsilon = 0.089
	if cge.FinalDist >= epsilon {
		t.Errorf("cge distance %.4f, want < %.4f (paper Table 1)", cge.FinalDist, epsilon)
	}
	if mean.FinalDist <= epsilon {
		t.Errorf("plain averaging distance %.4f suspiciously small under attack", mean.FinalDist)
	}
	if len(cge.FinalX) != linreg.Dim || cge.LossMin > cge.LossStart+1e-12 {
		t.Errorf("malformed result: %+v", cge)
	}
}

// TestInfeasibleScenariosAreSkippedNotFatal checks both skip routes: the
// filter's own (n, f) condition (Bulyan needs n >= 4f+3 = 7 > 6) and the
// engine's f < n/2 requirement.
func TestInfeasibleScenariosAreSkippedNotFatal(t *testing.T) {
	results, err := Run(Spec{
		Filters:   []string{"bulyan", "cge"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1, 3},
		Rounds:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		switch {
		case r.Filter == "bulyan" || r.F == 3:
			if !r.Skipped || r.Err == "" {
				t.Errorf("%s: want skipped with reason, got %+v", r.Key(), r)
			}
		default:
			if r.Status() != "ok" {
				t.Errorf("%s: want ok, got %s (%s)", r.Key(), r.Status(), r.Err)
			}
		}
	}
}

// TestStressMixedOmniscientPool hammers the worker pool with a larger
// grid of colluding omniscient adversaries at high concurrency; run under
// -race this is the engine's data-race probe.
func TestStressMixedOmniscientPool(t *testing.T) {
	spec := Spec{
		Filters:   []string{"cge", "cwtm", "multikrum", "centeredclip"},
		Behaviors: []string{"ipm", "alie", "random", "zero"},
		FValues:   []int{2, 5},
		NValues:   []int{24},
		Dims:      []int{8},
		Rounds:    12,
		Workers:   8,
	}
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ok int
	for _, r := range results {
		if r.Status() == "error" {
			t.Errorf("%s: %s", r.Key(), r.Err)
		}
		if r.Status() == "ok" {
			ok++
		}
	}
	if ok == 0 {
		t.Error("stress sweep produced no successful scenarios")
	}
	// The pool must not have reordered results: grid order is fixed.
	scns, err := Scenarios(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scns {
		if scns[i] != results[i].Scenario {
			t.Fatalf("result %d out of grid order: %+v vs %+v", i, results[i].Scenario, scns[i])
		}
	}
}

// TestResultsRoundTripJSON guards the export schema: scenario axes and
// metrics must survive a marshal/unmarshal cycle.
func TestResultsRoundTripJSON(t *testing.T) {
	spec := Spec{Filters: []string{"cwtm"}, Behaviors: []string{"zero"}, Rounds: 15}
	results, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results, false); err != nil {
		t.Fatal(err)
	}
	var back []Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("round trip lost results: %d vs %d", len(back), len(results))
	}
	if back[0].Scenario != results[0].Scenario || back[0].FinalDist != results[0].FinalDist {
		t.Errorf("round trip mangled result: %+v vs %+v", back[0], results[0])
	}
}

func TestFormatTableAndSummarize(t *testing.T) {
	results, err := Run(Spec{
		Filters:   []string{"cge", "bulyan"},
		Behaviors: []string{"gradient-reverse"},
		Rounds:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := FormatTable(results)
	for _, want := range []string{"FILTER", "cge", "bulyan", "skipped"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	sum := Summarize(results)
	if !strings.Contains(sum, "2 scenarios") || !strings.Contains(sum, "1 skipped") {
		t.Errorf("unexpected summary %q", sum)
	}
}

// TestFormatTablePlainGridUnchanged: a grid without the async, chaos or
// sketch axis renders exactly as it did before those columns existed (the
// string is FormatTable of testdata/baseline.json's cge and bulyan rows,
// captured at the parent of the commit that added CHAOS and SKETCH).
func TestFormatTablePlainGridUnchanged(t *testing.T) {
	all, err := ReadJSONFile("testdata/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []Result
	for _, r := range all {
		if r.Filter == "cge" || r.Filter == "bulyan" {
			rows = append(rows, r)
		}
	}
	const skip = "skipped (filter bulyan at round 0: bulyan needs n >= 4f+3, got n=6 f=1: aggregate: too many Byzantine agents for this filter)"
	want := `FILTER         BEHAVIOR             F    N     D STEP                       DIST         LOSS   WALL_MS STATUS
cge            none                 0    6     2 diminishing-1.5-1        0.0000       0.0170       0.0 ok
cge            gradient-reverse     1    6     2 diminishing-1.5-1        0.0697       0.0239       0.0 ok
cge            zero                 1    6     2 diminishing-1.5-1        0.0797       0.0272       0.0 ok
cge            (baseline)           1    6     2 diminishing-1.5-1        0.0000       0.0142       0.0 ok
bulyan         none                 0    6     2 diminishing-1.5-1        0.0003       0.0170       0.0 ok
bulyan         gradient-reverse     1    6     2 diminishing-1.5-1             -            -       0.0 ` + skip + `
bulyan         zero                 1    6     2 diminishing-1.5-1             -            -       0.0 ` + skip + `
bulyan         (baseline)           1    6     2 diminishing-1.5-1        0.0024       0.0142       0.0 ok
`
	if got := FormatTable(rows); got != want {
		t.Errorf("plain table moved:\n%s\nwant:\n%s", got, want)
	}
}

// TestFormatTableChaosGrid: a chaos grid's rows are told apart by the CHAOS
// column, degraded cells show their numbers, COST_X is the distance over the
// fault-free sibling's (1.000 on the sibling itself, "-" for a cell that did
// not finish) and every degraded row ends in its fault tally.
func TestFormatTableChaosGrid(t *testing.T) {
	results, err := Run(Spec{
		Filters:   []string{"cge", "cwtm"},
		Behaviors: []string{"gradient-reverse"},
		Rounds:    50,
		Chaoses:   []ChaosSpec{{}, {OmitRate: 0.1}, {OmitRate: 0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(FormatTable(results), "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("want header + 6 rows, got %d lines", len(lines))
	}
	for _, col := range []string{"CHAOS", "COST_X", "FAULTS"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("header missing %s: %s", col, lines[0])
		}
	}
	for i, r := range results {
		line := lines[i+1]
		chaos := r.Chaos
		if chaos == "" {
			chaos = "none"
		}
		if !strings.HasPrefix(line, chaos+" ") {
			t.Errorf("row %d does not lead with its chaos plan %q: %s", i, chaos, line)
		}
		switch {
		case r.Chaos == "":
			if !strings.Contains(line, " 1.000 ") || !strings.HasSuffix(line, " -") {
				t.Errorf("reference row should read ratio 1.000 and no tally: %s", line)
			}
		case r.Status() == "degraded":
			ref := results[i-i%3]
			ratio := fmt.Sprintf(" %10.4f %12.4f %8.3f ", r.FinalDist, r.LossFinal, r.FinalDist/ref.FinalDist)
			if !strings.Contains(line, ratio) {
				t.Errorf("degraded row should carry%s: %s", ratio, line)
			}
			if !strings.Contains(line, fmt.Sprintf("degraded crash=0 omit=%d ", r.Faults.Omitted)) || strings.Contains(line, "()") {
				t.Errorf("degraded row should end in its tally, not an empty error: %s", line)
			}
		default:
			// cwtm at omit:0.2 loses too many reports in one round.
			if r.Status() != "skipped" || !strings.Contains(line, "          -            -        - ") {
				t.Errorf("unfinished row should read '-' in DIST, LOSS and COST_X: %s", line)
			}
		}
	}
}

// TestFormatTableSketchColumn: two cells of one sketch filter that differ
// only in the swept dimension no longer render identically, and a filter
// that ignores the axis reads "-".
func TestFormatTableSketchColumn(t *testing.T) {
	results, err := Run(Spec{
		Filters:    []string{"krum", "krum-sketch"},
		Behaviors:  []string{"gradient-reverse"},
		Dims:       []int{8},
		NValues:    []int{12},
		SketchDims: []int{2, 4},
		Rounds:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(FormatTable(results), "\n"), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "SKETCH ") {
		t.Fatalf("want a SKETCH-led header + 3 rows:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.HasPrefix(lines[1], "-      krum ") ||
		!strings.HasPrefix(lines[2], "2      krum-sketch ") || !strings.HasPrefix(lines[3], "4      krum-sketch ") {
		t.Errorf("sketch cells:\n%s", strings.Join(lines, "\n"))
	}
}

// TestUnderdeterminedGridPointIsSkipped: a synthetic cell whose honest
// system has fewer agents than dimensions is a grid infeasibility, so it
// must land in the skipped bucket like the other tolerance refusals.
func TestUnderdeterminedGridPointIsSkipped(t *testing.T) {
	results, err := Run(Spec{
		Filters:   []string{"cge"},
		Behaviors: []string{"zero"},
		NValues:   []int{6},
		Dims:      []int{10},
		Rounds:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Skipped || results[0].Err == "" {
		t.Fatalf("underdetermined cell should be skipped with a reason, got %+v", results[0])
	}
}

// TestPinBehaviorSeedReplaysFixedStream: with PinBehaviorSeed the recorded
// seed is the base seed itself, and the run differs from the hash-derived
// one only through the behavior's random stream.
func TestPinBehaviorSeedReplaysFixedStream(t *testing.T) {
	spec := Spec{
		Problem:   ProblemPaper,
		Filters:   []string{"cge"},
		Behaviors: []string{"random"},
		Rounds:    30,
	}
	derived, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 2021
	spec.PinBehaviorSeed = true
	pinned, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pinned[0].Seed != 2021 {
		t.Errorf("pinned seed not recorded: %d", pinned[0].Seed)
	}
	if pinned[0].Seed == derived[0].Seed {
		t.Error("derived seed accidentally equals the pinned one")
	}
	again, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].FinalDist != pinned[0].FinalDist {
		t.Error("pinned run is not reproducible")
	}
}
