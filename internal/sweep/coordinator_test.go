package sweep

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"byzopt/internal/transport"
)

// testGridSpec is a small but non-trivial grid (12 cells incl. a skipped
// one) used across the fabric tests.
func testGridSpec() Spec {
	return Spec{
		Filters:   []string{"cge", "cwtm", "bulyan"},
		Behaviors: []string{"gradient-reverse", "random"},
		FValues:   []int{1, 2},
		Rounds:    25,
	}
}

// exportBytes renders results exactly as the CLIs export them.
func exportBytes(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startCoordinator launches Coordinate on a loopback listener and returns
// its address plus a wait function for the results.
func startCoordinator(t *testing.T, ctx context.Context, cs CoordinatorSpec) (string, func() ([]Result, error)) {
	return startFleetCoordinator(t, ctx, cs, 0)
}

// fleetListener hands the coordinator no connection before `workers` of them
// have arrived. A test that starts several workers and requires each to end
// cleanly needs it: the coordinator closes its listener with the grid, a cell
// takes microseconds, and a worker that has not dialed by then fails — whereas
// one already connected is drained with a done frame.
type fleetListener struct {
	net.Listener
	workers int
	gate    sync.Once
	arrived chan net.Conn
}

func (l *fleetListener) Accept() (net.Conn, error) {
	l.gate.Do(func() {
		for i := 0; i < l.workers; i++ {
			c, err := l.Listener.Accept()
			if err != nil {
				return
			}
			l.arrived <- c
		}
	})
	select {
	case c := <-l.arrived:
		return c, nil
	default:
		return l.Listener.Accept()
	}
}

// startFleetCoordinator is startCoordinator for a test whose `workers`
// workers must all connect before the first is served.
func startFleetCoordinator(t *testing.T, ctx context.Context, cs CoordinatorSpec, workers int) (string, func() ([]Result, error)) {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tcp.Addr().String()
	ln := &fleetListener{Listener: tcp, workers: workers, arrived: make(chan net.Conn, workers)}
	type outcome struct {
		results []Result
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		results, err := Coordinate(ctx, ln, cs)
		ch <- outcome{results, err}
	}()
	return addr, func() ([]Result, error) {
		select {
		case o := <-ch:
			return o.results, o.err
		case <-time.After(2 * time.Minute):
			t.Fatal("coordinator did not finish")
			return nil, nil
		}
	}
}

// TestCoordinatorParityWithSingleProcessRun is the fabric's core
// guarantee: a grid served to two TCP workers exports byte-identically to
// the single-process Run of the same Spec.
func TestCoordinatorParityWithSingleProcessRun(t *testing.T) {
	spec := testGridSpec()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	addr, wait := startFleetCoordinator(t, ctx, CoordinatorSpec{Spec: spec, LeaseCells: 2}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := Work(ctx, addr, WorkerOptions{Name: "w", Workers: 1}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	got, err := wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, want)) {
		t.Error("distributed export differs from single-process export")
	}
}

// crashingWork mimics a worker that is SIGKILLed mid-sweep: it runs the
// normal protocol but severs the TCP connection (no goodbye) after
// streaming maxResults results.
func crashingWork(t *testing.T, addr string, maxResults int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	// Work's emit path has no injection hook, so crash via the context: the
	// watcher closes the socket abruptly, exactly like a killed process.
	err := Work(ctx, addr, WorkerOptions{
		Workers: 1,
		Logf: func(string, ...any) {
			// Logf fires once per lease; crash on the lease after results
			// flowed.
			if streamed >= maxResults {
				cancel()
			}
			streamed++
		},
	})
	if err == nil {
		t.Log("crashing worker finished cleanly (grid too small to crash mid-sweep)")
	}
}

// TestCoordinatorSurvivesWorkerCrashMidSweep kills one of two workers
// mid-grid; the survivor must pick up the reassigned cells and the export
// must still be byte-identical to the single-process run.
func TestCoordinatorSurvivesWorkerCrashMidSweep(t *testing.T) {
	spec := testGridSpec()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Short TTL so cells leased to the crashed worker reassign quickly even
	// if connection teardown were missed.
	addr, wait := startCoordinator(t, ctx, CoordinatorSpec{
		Spec: spec, LeaseCells: 2, LeaseTTL: 2 * time.Second,
	})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		crashingWork(t, addr, 2)
	}()
	go func() {
		defer wg.Done()
		// The survivor: retries because the grid outlives the crasher.
		if err := Work(ctx, addr, WorkerOptions{Name: "survivor", Workers: 1}); err != nil {
			t.Errorf("surviving worker: %v", err)
		}
	}()
	got, err := wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, want)) {
		t.Error("export after worker crash differs from single-process export")
	}
}

// TestCoordinatorLeaseExpiryReassigns wedges a worker that takes a lease
// and never computes: the lease TTL must return its cells to the pool so a
// healthy worker finishes the grid.
func TestCoordinatorLeaseExpiryReassigns(t *testing.T) {
	spec := Spec{
		Filters:   []string{"cge"},
		Behaviors: []string{"gradient-reverse"},
		FValues:   []int{1},
		Rounds:    10,
	}
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	addr, wait := startCoordinator(t, ctx, CoordinatorSpec{
		Spec: spec, LeaseCells: 1, LeaseTTL: 300 * time.Millisecond,
	})

	// The wedge: speak the protocol by hand, take a lease, then go silent
	// while keeping the connection open.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	wedgeDone := make(chan struct{})
	go func() {
		defer close(wedgeDone)
		wedgeWorker(t, conn)
	}()
	<-wedgeDone // lease is held before the honest worker starts

	if err := Work(ctx, addr, WorkerOptions{Workers: 1}); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	got, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, want)) {
		t.Error("export after lease expiry differs from single-process export")
	}
}

// TestCoordinatorResumeFromCheckpoint cancels a coordinator mid-grid, then
// resumes it from its checkpoint: the resumed run must only dispatch the
// missing cells and the final export must be byte-identical to the
// single-process run.
func TestCoordinatorResumeFromCheckpoint(t *testing.T) {
	spec := testGridSpec()
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "grid.ckpt")

	// Phase 1: run with a worker that crashes after a couple of leases,
	// then cancel the coordinator (no other workers: cells stay undone).
	ctx1, cancel1 := context.WithCancel(context.Background())
	addr, wait := startCoordinator(t, ctx1, CoordinatorSpec{
		Spec: spec, LeaseCells: 2, CheckpointPath: ckpt,
	})
	crashingWork(t, addr, 2)
	time.Sleep(100 * time.Millisecond) // let streamed results land
	cancel1()
	partial, err := wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled coordinator: %v", err)
	}
	if len(partial) == 0 {
		t.Fatal("phase 1 completed no cells; cannot exercise resume")
	}
	if len(partial) == len(want) {
		t.Fatal("phase 1 completed the whole grid; cannot exercise resume")
	}

	// Phase 2: resume. Count how many cells the worker actually runs — the
	// checkpointed ones must not be re-dispatched.
	var mu sync.Mutex
	dispatched := 0
	ctx := context.Background()
	addr2, wait2 := startCoordinator(t, ctx, CoordinatorSpec{
		Spec: spec, LeaseCells: 2, CheckpointPath: ckpt,
		Progress: func(done, total int) {
			mu.Lock()
			dispatched++
			mu.Unlock()
		},
	})
	if err := Work(ctx, addr2, WorkerOptions{Workers: 1}); err != nil {
		t.Fatalf("resume worker: %v", err)
	}
	got, err := wait2()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, got), exportBytes(t, want)) {
		t.Error("resumed export differs from single-process export")
	}
	// Progress fires once for the restored set, then once per cell actually
	// re-dispatched: resuming must skip every checkpointed cell.
	mu.Lock()
	defer mu.Unlock()
	if wantCalls := 1 + len(want) - len(partial); dispatched != wantCalls {
		t.Errorf("resume made %d progress calls, want %d (checkpointed cells re-ran?)", dispatched, wantCalls)
	}
}

// wedgeWorker speaks the wire protocol by hand far enough to hold a lease,
// then goes silent with the connection open — the wedged-but-alive failure
// mode only the lease TTL can recover from.
func wedgeWorker(t *testing.T, conn net.Conn) {
	t.Helper()
	w := bufio.NewWriter(conn)
	r := bufio.NewReader(conn)
	if err := transport.WriteSweepFrame(w, transport.SweepKindHello,
		transport.SweepHello{Proto: transport.SweepProtoVersion, Name: "wedge"}); err != nil {
		t.Error(err)
		return
	}
	if err := w.Flush(); err != nil {
		t.Error(err)
		return
	}
	if _, err := transport.ExpectSweepFrame(r, transport.SweepKindSpec); err != nil {
		t.Error(err)
		return
	}
	if err := transport.WriteSweepFrame(w, transport.SweepKindLeaseRequest, nil); err != nil {
		t.Error(err)
		return
	}
	if err := w.Flush(); err != nil {
		t.Error(err)
		return
	}
	f, err := transport.ExpectSweepFrame(r, transport.SweepKindLease)
	if err != nil {
		t.Error(err)
		return
	}
	var ls transport.SweepLease
	if err := f.Decode(&ls); err != nil {
		t.Error(err)
		return
	}
	if len(ls.Indices) == 0 {
		t.Error("wedge expected a non-empty lease")
	}
	// ...and never compute or reply.
}

// TestCoordinateRejectsUndistributableSpecs pins the fail-fast contract.
func TestCoordinateRejectsUndistributableSpecs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	spec := testGridSpec()
	spec.Shard = &Shard{Index: 0, Count: 2}
	if _, err := Coordinate(context.Background(), ln, CoordinatorSpec{Spec: spec}); !errors.Is(err, ErrSpec) {
		t.Errorf("sharded spec: %v", err)
	}
}
