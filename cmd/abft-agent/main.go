// Command abft-agent runs one agent of the server-based architecture: it
// dials the server (cmd/abft-server), introduces itself, and answers
// gradient requests until shut down.
//
// The agent's local cost is a single regression observation (B_i - A_i x)^2
// given via -row/-b, or the Appendix-J paper row selected by -id when
// -paper is set. A Byzantine agent is simulated with -fault.
//
// Examples:
//
//	abft-agent -connect :7000 -id 2 -paper
//	abft-agent -connect :7000 -id 0 -paper -fault gradient-reverse
//	abft-agent -connect :7000 -id 3 -row 0.5,0.8 -b 1.3376
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/linreg"
	"byzopt/internal/prof"
	"byzopt/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "abft-agent:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("abft-agent", flag.ContinueOnError)
	connect := fs.String("connect", "127.0.0.1:7000", "server address")
	id := fs.Int("id", 0, "agent index (0-based)")
	paper := fs.Bool("paper", false, "use the Appendix-J regression row for this id")
	rowFlag := fs.String("row", "", "comma-separated design row A_i")
	bFlag := fs.Float64("b", 0, "response B_i")
	fault := fs.String("fault", "", "Byzantine behavior (empty = honest; see byzopt.BehaviorNames)")
	seed := fs.Int64("seed", 42, "seed for randomized faults")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
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
		row []float64
		b   float64
	)
	switch {
	case *paper:
		rows := linreg.A()
		if *id < 0 || *id >= len(rows) {
			return fmt.Errorf("-paper id %d out of [0, %d)", *id, len(rows))
		}
		row = rows[*id]
		b = linreg.B()[*id]
	case *rowFlag != "":
		row, err = parseVector(*rowFlag)
		if err != nil {
			return fmt.Errorf("parsing -row: %w", err)
		}
		b = *bFlag
	default:
		return fmt.Errorf("either -paper or -row is required")
	}

	cost, err := costfunc.NewObservation(row, b)
	if err != nil {
		return err
	}
	agent, err := dgd.NewHonest(cost)
	if err != nil {
		return err
	}
	if *fault != "" {
		behavior, err := byzantine.New(*fault, *seed)
		if err != nil {
			return err
		}
		agent, err = dgd.NewFaulty(agent, behavior)
		if err != nil {
			return err
		}
		fmt.Printf("agent %d: BYZANTINE (%s)\n", *id, behavior.Name())
	} else {
		fmt.Printf("agent %d: honest, row %v, b %v\n", *id, row, b)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("agent %d: connecting to %s (gradient protocol v%d)\n", *id, *connect, transport.GradProtoVersion)
	if err := transport.ServeAgent(ctx, *connect, *id, agent); err != nil {
		return err
	}
	fmt.Printf("agent %d: done\n", *id)
	return nil
}

func parseVector(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("coordinate %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
