// Command abft-server runs the trusted server of the paper's server-based
// architecture (Figure 1, left) over real TCP sockets. It waits for n
// agents (see cmd/abft-agent), then drives the synchronous DGD protocol
// with the chosen gradient filter and prints the final estimate.
//
// Example (six agents on the Appendix-J regression, one Byzantine):
//
//	abft-server -listen :7000 -n 6 -f 1 -filter cge -rounds 500 -dim 2
//	for i in $(seq 0 5); do abft-agent -connect :7000 -id $i -paper & done
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/cluster"
	"byzopt/internal/dgd"
	"byzopt/internal/prof"
	"byzopt/internal/transport"
	"byzopt/internal/vecmath"
)

func main() {
	// An interrupt cancels the protocol run between rounds instead of
	// killing the process mid-broadcast.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "abft-server:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("abft-server", flag.ContinueOnError)
	listen := fs.String("listen", ":7000", "address to listen on")
	n := fs.Int("n", 6, "number of agents to wait for")
	f := fs.Int("f", 1, "Byzantine fault budget")
	filterName := fs.String("filter", "cge", "gradient filter (see byzopt.FilterNames)")
	rounds := fs.Int("rounds", 500, "iterations to run")
	dim := fs.Int("dim", 2, "optimization dimension")
	x0Flag := fs.String("x0", "", "comma-separated initial estimate (default zeros)")
	stepC := fs.Float64("step", 1.5, "diminishing step coefficient c in c/(t+1)")
	boxR := fs.Float64("box", 1000, "projection box radius (0 disables)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-round agent deadline")
	accept := fs.Duration("accept", 60*time.Second, "agent connection window")
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

	filter, err := aggregate.New(*filterName)
	if err != nil {
		return err
	}
	x0 := vecmath.Zeros(*dim)
	if *x0Flag != "" {
		x0, err = parseVector(*x0Flag)
		if err != nil {
			return fmt.Errorf("parsing -x0: %w", err)
		}
		if len(x0) != *dim {
			return fmt.Errorf("-x0 has %d coordinates, -dim is %d", len(x0), *dim)
		}
	}
	var box *vecmath.Box
	if *boxR > 0 {
		box, err = vecmath.NewCube(*dim, *boxR)
		if err != nil {
			return err
		}
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer func() { _ = l.Close() }()
	fmt.Printf("listening on %s (gradient protocol v%d), waiting for %d agents...\n", l.Addr(), transport.GradProtoVersion, *n)

	conns, err := transport.AcceptAgents(l, *n, *accept)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	fmt.Printf("all %d agents connected; running %d rounds with filter %s (f = %d)\n",
		*n, *rounds, filter.Name(), *f)

	srv, err := cluster.NewServer(cluster.Config{
		Conns:        conns,
		F:            *f,
		Filter:       filter,
		Steps:        dgd.Diminishing{C: *stepC, P: 1},
		Box:          box,
		X0:           x0,
		Rounds:       *rounds,
		RoundTimeout: *timeout,
	})
	if err != nil {
		return err
	}
	res, err := srv.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("final estimate: %v\n", formatVector(res.X))
	if len(res.Eliminated) > 0 {
		fmt.Printf("eliminated agents (step S1): %v; final n=%d f=%d\n",
			res.Eliminated, res.FinalN, res.FinalF)
	}
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

func formatVector(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
