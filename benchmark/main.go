// Command benchmark is the repo's benchmark: six workloads driven through the
// public entry points (byzopt.Sweep, CoordinateSweep/SweepWork, the TCP
// cluster, byzopt.Run), end-to-end metrics over pooled passes, per-layer
// metrics from a separate traced run, and correctness checks on every output.
// BENCHMARK.json declares the four of them the driver gates on. README.md has
// the workloads, the metrics and how they interact.
//
//	bash benchmark/run.sh                       every workload, results JSON with -out
//	bash benchmark/run.sh --workload paper_grid --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// visitsPerWorkload is how many fresh processes a workload's passes are
// spread over.
const visitsPerWorkload = 3

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload only and end with the driver's one-line JSON result; empty runs all six")
		seed         = flag.Int64("seed", 1, "the only input: every pass seed and tcp_cluster's cost rows derive from it")
		seconds      = flag.Float64("seconds", 10, "how long one workload's timed passes run, all visits together")
		trace        = flag.Int("trace", 0, "with -workload: 1 runs the traced visit and reports the per-layer metrics instead")
		out          = flag.String("out", "", "write the results JSON here")
		compare      = flag.Bool("compare", false, "compare two results files given as arguments and exit non-zero on any worse pair")
		smoke        = flag.Bool("smoke", false, "one visit in this process, one timed pass, at most 20 rounds: the scale the tests run")
		visitJSON    = flag.String("visit", "", "internal: run one visit (JSON visitOpts) and print its report")
	)
	flag.Parse()
	switch {
	case *visitJSON != "":
		var o visitOpts
		if err := json.Unmarshal([]byte(*visitJSON), &o); err != nil {
			fatal(err)
		}
		rep, err := runVisit(o)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two results files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	default:
		r := &runner{seed: *seed, seconds: *seconds, smoke: *smoke, tmp: filepath.Join(".bench_build", "tmp")}
		if err := r.main(*workloadName, *trace != 0, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runner is the parent: it starts the visits and pools what they report.
type runner struct {
	seed    int64
	seconds float64
	smoke   bool
	tmp     string
}

// main runs one workload the way the driver asks, or all six, and prints
// every metric by name and unit. Any failed cell, pass, check or visit makes
// it return an error after the results are printed and written.
func (r *runner) main(only string, traced bool, out string) error {
	ws := workloads(r.smoke)
	if only != "" {
		w := findWorkload(ws, only)
		if w == nil {
			return fmt.Errorf("unknown workload %q", only)
		}
		ws = []*workload{w}
	}
	res := &results{Schema: resultsSchema, Provenance: r.provenance()}
	visits := make(map[string][]*visitReport)
	if only == "" || !traced {
		// A B C D E F three times, not AAA BBB: a slow period of the machine
		// then hits a third of each workload's passes.
		for v := 0; v < r.visits(); v++ {
			for _, w := range ws {
				visits[w.name] = append(visits[w.name], r.visit(w, v, false))
			}
		}
	}
	for _, w := range ws {
		wr := poolVisits(w, visits[w.name])
		if only == "" || traced {
			wr.addTraced(r.visit(w, r.visits(), true))
		}
		res.Workloads = append(res.Workloads, wr)
		wr.print(os.Stdout)
	}
	if out != "" {
		doc, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	failed := 0
	for _, wr := range res.Workloads {
		failed += wr.Failed
	}
	if only != "" {
		// The driver reads the last line of standard output.
		wr := res.Workloads[0]
		line := driverLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: wr.Metrics}
		if traced {
			line.Metrics = wr.Layers
		}
		doc, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", doc)
	}
	if failed > 0 {
		return fmt.Errorf("%d cells or rounds failed; the failing checks are named above", failed)
	}
	return nil
}

func (r *runner) visits() int {
	if r.smoke {
		return 1
	}
	return visitsPerWorkload
}

// visit runs one visit of w, in a fresh process unless at smoke scale. A
// visit that cannot run or exits non-zero comes back as a failed report, so
// it counts in failed_share.
func (r *runner) visit(w *workload, v int, traced bool) *visitReport {
	o := visitOpts{
		Workload: w.name, Seed: r.seed, Visit: v, Trace: traced, Smoke: r.smoke, Tmp: r.tmp,
		Seconds: r.seconds / float64(r.visits()),
		Checks:  v == 0, // the checks that cost a pass run once per workload
	}
	if traced {
		o.Seconds = r.seconds
	}
	rep, err := r.launch(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s visit %d FAILED: %v\n", w.name, v, err)
		return &visitReport{Workload: w.name, Visit: v, Attempted: 1, Failed: 1,
			FailedChecks: []string{fmt.Sprintf("visit %d: %v", v, err)}}
	}
	return rep
}

func (r *runner) launch(o visitOpts) (*visitReport, error) {
	if r.smoke {
		o.Started = time.Now()
		return runVisit(o)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	o.Started = time.Now()
	arg, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-visit", string(arg))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	rep := new(visitReport)
	if err := json.Unmarshal(stdout.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return rep, nil
}

// --- results ---

const resultsSchema = "byzopt-benchmark/1"

// results is the results JSON: provenance, every metric, and the raw samples
// a later comparison needs.
type results struct {
	Schema     string            `json:"schema"`
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of a visit
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload"`
	Visits     int     `json:"visits_per_workload"`
	// TmpDir and TmpFS say where the fleet's checkpoint is fsynced.
	TmpDir string `json:"tmp_dir"`
	TmpFS  string `json:"tmp_fs_type"`
}

func (r *runner) provenance() provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: visitProcs,
		Seed: r.seed, Seconds: r.seconds, Visits: r.visits(), TmpDir: r.tmp, TmpFS: "unknown",
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if doc, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(doc), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	var fs syscall.Statfs_t
	if err := os.MkdirAll(r.tmp, 0o755); err == nil && syscall.Statfs(r.tmp, &fs) == nil {
		p.TmpFS = fmt.Sprintf("0x%x", fs.Type)
	}
	return p
}

// workloadResult is one workload's part of the results.
type workloadResult struct {
	Name string `json:"name"`
	// Attempted and Failed count cells (rounds on tcp_cluster); FailedShare
	// is their ratio, 0 on a correct run.
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	FailedShare  float64  `json:"failed_share"`
	FailedChecks []string `json:"failed_checks,omitempty"`
	// Metrics are the end-to-end metrics over the pooled passes of the
	// visits; Quartiles the first quartile, median and third quartile of the
	// same metrics computed visit by visit, whose spread says whether a
	// difference is resolved.
	Metrics   map[string]metricValue `json:"metrics,omitempty"`
	Quartiles map[string][3]float64  `json:"per_visit_quartiles,omitempty"`
	// PassS is the wall time of every timed pass, visit by visit.
	PassS [][]float64 `json:"pass_wall_s,omitempty"`
	// Layers are the per-layer metrics of the traced visit.
	Layers map[string]metricValue `json:"layers,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one-line result the driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (wr *workloadResult) count(v *visitReport) {
	wr.Attempted += v.Attempted
	wr.Failed += v.Failed
	wr.FailedChecks = append(wr.FailedChecks, v.FailedChecks...)
	wr.FailedShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
}

// poolVisits computes a workload's end-to-end metrics from its visits.
func poolVisits(w *workload, visits []*visitReport) *workloadResult {
	wr := &workloadResult{Name: w.name}
	var ran []*visitReport
	for _, v := range visits {
		wr.count(v)
		if len(v.Passes) > 0 {
			ran = append(ran, v)
			walls := make([]float64, len(v.Passes))
			for i, p := range v.Passes {
				walls[i] = p.WallS
			}
			wr.PassS = append(wr.PassS, walls)
		}
	}
	if len(ran) == 0 {
		return wr
	}
	pooled := endToEndOf(ran)
	perVisit := make([]map[string]float64, len(ran))
	for i := range ran {
		perVisit[i] = endToEndOf(ran[i : i+1])
	}
	wr.Metrics = make(map[string]metricValue)
	wr.Quartiles = make(map[string][3]float64)
	for _, def := range endToEnd {
		vals := make([]float64, len(ran))
		for i := range ran {
			vals[i] = perVisit[i][def.Name]
		}
		wr.Metrics[def.Name] = metricValue{pooled[def.Name], def.Unit}
		wr.Quartiles[def.Name] = quartiles(vals)
	}
	return wr
}

// addTraced adds the traced visit's per-layer metrics.
func (wr *workloadResult) addTraced(v *visitReport) {
	wr.count(v)
	if v.Layers == nil {
		return
	}
	wr.Layers = make(map[string]metricValue)
	for _, def := range perLayer {
		wr.Layers[def.Name] = metricValue{v.Layers[def.Name], def.Unit}
	}
}

func (wr *workloadResult) print(w *os.File) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, failed_share %g\n", wr.Name, wr.Attempted, wr.Failed, wr.FailedShare)
	for _, def := range endToEnd {
		if mv, ok := wr.Metrics[def.Name]; ok {
			fmt.Fprintf(w, "%-12s %-36s %14.6g %s\n", wr.Name, def.Name, mv.Value, mv.Unit)
		}
	}
	for _, def := range perLayer {
		if mv, ok := wr.Layers[def.Name]; ok {
			fmt.Fprintf(w, "%-12s %-36s %14.6g %s\n", wr.Name, def.Name, mv.Value, mv.Unit)
		}
	}
}
