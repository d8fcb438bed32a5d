package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// setupFloorS is the absolute part of setup_s's bound, max(25 %, 0.25 s): on a
// workload that sets up in 0.15 s, 25 % is scheduler noise.
const setupFloorS = 0.25

func readResults(path string) (*results, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := new(results)
	if err := json.Unmarshal(doc, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if res.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, resultsSchema)
	}
	return res, nil
}

// compareFiles applies each end-to-end metric's bound to every workload of two
// results files, base then change, and prints one row per pair: better,
// within, worse, or unresolved when the visit-to-visit spread of either side
// exceeds the bound. It reports whether any pair is worse; more failed cells
// than the base is worse too.
func compareFiles(w io.Writer, basePath, changePath string) (worse bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "change", "delta", "spread", "bound", "verdict")
	for _, b := range base.Workloads {
		var c *workloadResult
		for _, cw := range change.Workloads {
			if cw.Name == b.Name {
				c = cw
			}
		}
		if c == nil {
			return false, fmt.Errorf("workload %s is missing from %s", b.Name, changePath)
		}
		verdict := "within"
		if c.FailedShare > b.FailedShare {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-12s %-20s %14g %14g %8s %7s %7s  %s\n", b.Name, "failed_share", b.FailedShare, c.FailedShare, "", "", "0", verdict)
		for _, def := range endToEnd {
			bv, cv := b.Metrics[def.Name].Value, c.Metrics[def.Name].Value
			// delta is the worsening as a share of the base: positive is worse.
			delta := (cv - bv) / bv
			if def.Better == "higher" {
				delta = -delta
			}
			bound := def.Bound
			if def.Name == "setup_s" {
				bound = math.Max(bound, setupFloorS/bv)
			}
			sp := math.Max(quartileSpread(b.Quartiles[def.Name]), quartileSpread(c.Quartiles[def.Name]))
			switch {
			case sp > bound:
				verdict = "unresolved"
			case delta > bound:
				verdict, worse = "worse", true
			case delta < -bound:
				verdict = "better"
			default:
				verdict = "within"
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				b.Name, def.Name, bv, cv, 100*delta, 100*sp, 100*bound, verdict)
		}
	}
	return worse, nil
}

func quartileSpread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return math.Abs((q[2] - q[0]) / q[1])
}
