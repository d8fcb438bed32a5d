package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/cluster"
	"byzopt/internal/transport"
)

func TestParseVector(t *testing.T) {
	v, err := parseVector("0.8,0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 || v[0] != 0.8 || v[1] != 0.5 {
		t.Fatalf("parsed %v", v)
	}
	if _, err := parseVector("x"); err == nil {
		t.Error("bad vector should error")
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -paper/-row should error")
	}
	if err := run([]string{"-paper", "-id", "99"}); err == nil {
		t.Error("out-of-range paper id should error")
	}
	if err := run([]string{"-row", "bogus"}); err == nil {
		t.Error("bad row should error")
	}
	if err := run([]string{"-row", "1,0", "-b", "1", "-fault", "nope"}); err == nil {
		t.Error("unknown fault should error")
	}
}

// TestProfileFlags: a run with -cpuprofile and -memprofile leaves two
// non-empty profiles behind.
func TestProfileFlags(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")

	served := make(chan error, 1)
	go func() {
		conns, err := transport.AcceptAgents(l, 1, 10*time.Second)
		if err != nil {
			served <- err
			return
		}
		defer func() { _ = conns[0].Close() }()
		srv, err := cluster.NewServer(cluster.Config{
			Conns: conns, F: 0, Filter: aggregate.Mean{}, X0: make([]float64, 2), Rounds: 20,
		})
		if err == nil {
			_, err = srv.Run(context.Background())
		}
		served <- err
	}()
	if err := run([]string{"-connect", l.Addr().String(), "-id", "0", "-paper",
		"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("server: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", p, err)
		}
	}
}
