package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/transport"
)

func TestParseVector(t *testing.T) {
	v, err := parseVector("1.5, -2, 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || v[0] != 1.5 || v[1] != -2 || v[2] != 0 {
		t.Fatalf("parsed %v", v)
	}
	if _, err := parseVector("1,abc"); err == nil {
		t.Error("bad coordinate should error")
	}
}

func TestFormatVector(t *testing.T) {
	got := formatVector([]float64{1.5, -2})
	if got != "(1.5, -2)" {
		t.Fatalf("formatted %q", got)
	}
}

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-filter", "bogus"}); err == nil {
		t.Error("unknown filter should error")
	}
	if err := run(ctx, []string{"-x0", "1,2,3", "-dim", "2"}); err == nil {
		t.Error("x0/dim mismatch should error")
	}
	if err := run(ctx, []string{"-x0", "1,zz", "-dim", "2"}); err == nil {
		t.Error("unparseable x0 should error")
	}
}

// TestProfileFlags: a run with -cpuprofile and -memprofile leaves two
// non-empty profiles behind.
func TestProfileFlags(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cost, err := costfunc.NewObservation([]float64{1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := dgd.NewHonest(cost)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		for { // the server may not be listening yet
			err := transport.ServeAgent(ctx, addr, 0, agent)
			if err == nil || ctx.Err() != nil {
				served <- err
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if err := run(ctx, []string{"-listen", addr, "-n", "1", "-f", "0", "-filter", "mean", "-rounds", "20",
		"-accept", "10s", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("agent: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", p, err)
		}
	}
}
