// Command abft-redundancy measures the (2f, ε)-redundancy of a distributed
// regression instance (Definition 3, via the Appendix J.2 enumeration) and
// reports the derived constants and resilience bounds.
//
// Input is either the paper's Appendix-J instance (-paper) or a CSV file
// (-data) with one agent per line: the design row followed by the response,
// e.g. "0.8,0.5,1.3349".
//
// One sequential subset enumeration (core.Measure) yields both ε and the
// output of the exhaustive algorithm of Theorem 2: it solves each outer and
// inner subset once, by downdating the summed Gram matrix, and scores every
// (S, Ŝ) pair from those solves. At n = 200 that is 20,100 solves at f = 1
// and 66,018,250 at f = 2, for 40,000 and 392,069,800 pairs.
//
// Examples:
//
//	abft-redundancy -paper
//	abft-redundancy -data agents.csv -f 2
//	abft-redundancy -paper -cpuprofile cpu.prof -memprofile heap.prof
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"byzopt/internal/core"
	"byzopt/internal/linreg"
	"byzopt/internal/matrix"
	"byzopt/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "abft-redundancy:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("abft-redundancy", flag.ContinueOnError)
	paper := fs.Bool("paper", false, "use the Appendix-J instance")
	data := fs.String("data", "", "CSV file, one agent per line: row..., response")
	f := fs.Int("f", 1, "Byzantine budget f")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	var (
		rows [][]float64
		b    []float64
	)
	switch {
	case *paper:
		rows, b = linreg.A(), linreg.B()
	case *data != "":
		rows, b, err = readCSV(*data)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -paper or -data is required")
	}

	a, err := matrix.FromRows(rows)
	if err != nil {
		return err
	}
	prob, err := core.NewLeastSquaresProblem(a, b)
	if err != nil {
		return err
	}
	n := prob.N()
	if !core.Feasible(n, *f) {
		return fmt.Errorf("f = %d infeasible for n = %d (Lemma 1 requires f < n/2)", *f, n)
	}

	m, err := core.Measure(prob, *f, core.AtLeastSize)
	if err != nil {
		return err
	}
	var solved int64 // Measure's subsets: those removing f to 2f agents
	for k := *f; k <= 2**f; k++ {
		c, err := core.Binomial(n, k)
		if err != nil {
			return err
		}
		solved += c
	}
	cost, err := core.ExhaustiveCost(n, *f)
	if err != nil {
		return err
	}
	rep := m.Redundancy
	fmt.Printf("instance: n = %d agents, d = %d, f = %d\n", n, prob.Dim(), *f)
	fmt.Printf("(2f, eps)-redundancy: eps = %.6f over %d subset pairs\n", rep.Epsilon, rep.Pairs)
	fmt.Printf("worst pair: S = %v, Shat = %v\n", rep.WorstOuter, rep.WorstInner)
	fmt.Printf("Theorem 2: an (f, %.6f)-resilient output is achievable; this run solved\n", 2*rep.Epsilon)
	fmt.Printf("%d subsets for eps and that output; the proof's algorithm performs %d subset minimizations.\n", solved, cost)

	if m.Exhaustive == nil {
		return fmt.Errorf("exhaustive algorithm: needs f > 0")
	}
	fmt.Printf("exhaustive output: %v (score r_S = %.6f)\n", m.Exhaustive.X, m.Exhaustive.Score)
	return nil
}

func readCSV(path string) (rows [][]float64, b []float64, err error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = file.Close() }()
	scanner := bufio.NewScanner(file)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) < 2 {
			return nil, nil, fmt.Errorf("%s:%d: need at least one design value and a response", path, line)
		}
		vals := make([]float64, len(parts))
		for i, p := range parts {
			vals[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s:%d field %d: %w", path, line, i+1, err)
			}
		}
		rows = append(rows, vals[:len(vals)-1])
		b = append(b, vals[len(vals)-1])
	}
	if err := scanner.Err(); err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("%s: no agents found", path)
	}
	return rows, b, nil
}
