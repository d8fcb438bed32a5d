// Package cluster runs the paper's server-based architecture (Figure 1,
// left) over a transport: a trusted server drives synchronous DGD rounds
// against n agent connections, any f of which may be Byzantine.
//
// It implements the full Section 4.1 protocol including step S1's
// elimination rule: the system is synchronous, so an agent that misses a
// round deadline must be faulty; the server removes it and decrements both
// n and f before continuing.
//
// The server is only the report-gathering half of a round: transport
// fan-out, elimination (or, under an enabled chaos plan, per-round
// omission). The update itself — overlay, filter, projected step — is the
// dgd.Round kernel, shared with the in-process engine and package p2p, which
// is what makes a cluster run reproduce an in-process run bit for bit.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"byzopt/internal/aggregate"
	"byzopt/internal/chaos"
	"byzopt/internal/dgd"
	"byzopt/internal/transport"
	"byzopt/internal/vecmath"
)

// ErrConfig is returned (wrapped) for invalid server configurations.
var ErrConfig = errors.New("cluster: invalid configuration")

// ErrTooManyFailures is returned (wrapped) when more agents miss deadlines
// than the fault budget f allows — a synchrony-assumption violation.
var ErrTooManyFailures = errors.New("cluster: more silent agents than the fault budget")

// Config describes a server run.
type Config struct {
	// Conns are the agent connections, in agent-index order.
	Conns []transport.AgentConn
	// F is the Byzantine budget; silent agents are eliminated against it.
	F int
	// Filter is the gradient aggregation rule.
	Filter aggregate.Filter
	// Steps is the step-size schedule; nil means the paper's 1.5/(t+1).
	Steps dgd.StepSchedule
	// Box is the constraint set W; nil disables projection.
	Box *vecmath.Box
	// X0 is the initial estimate.
	X0 []float64
	// Rounds is the number of iterations.
	Rounds int
	// RoundTimeout is each round's deadline, counted from the moment the
	// server sends the round to the live agents (the run context's deadline
	// instead, if that comes sooner). A request still unanswered then fails:
	// step S1 eliminates its agent, or an enabled chaos plan mutes it for the
	// round. Zero means a generous 5 seconds.
	RoundTimeout time.Duration
	// Observer mirrors dgd.Config.Observer: it sees every estimate x_t (its
	// loss and distance are NaN, a server tracks neither), so
	// instrumentation is portable between the in-process engine and the
	// cluster.
	Observer dgd.RoundObserver
}

// Result extends the dgd result with cluster-level accounting.
type Result struct {
	// X is the final estimate.
	X []float64
	// Trace holds the recorded loss/distance series (t = 0..Rounds).
	Trace dgd.Trace
	// Eliminated lists the agent indices removed by the step-S1 rule, in
	// elimination order.
	Eliminated []int
	// FinalN and FinalF are the system parameters after eliminations.
	FinalN, FinalF int
	// Degraded reports that the run rode out at least one system fault —
	// injected by the chaos plan or a transport failure under it — instead
	// of eliminating an agent or failing.
	Degraded bool
	// Faults tallies the run's system faults: the chaos plan's injections
	// plus the transport failures muted under it.
	Faults chaos.Counters
}

// Server coordinates one run. The zero value is unusable; construct with
// NewServer.
type Server struct {
	conns   []transport.AgentConn
	timeout time.Duration
	kernel  dgd.Config // what the round kernel consumes; Agents is unused
}

// NewServer validates the configuration.
func NewServer(cfg Config) (*Server, error) {
	return newServer(cfg, dgd.Config{
		F: cfg.F, Filter: cfg.Filter, Steps: cfg.Steps, Box: cfg.Box, X0: cfg.X0, Rounds: cfg.Rounds,
		Observer: cfg.Observer,
	})
}

// newServer validates the transport side of cfg and, through the kernel's
// one set of checks, everything else. The kernel configuration carries the
// rest of a run — the tracked loss, the async overlay, the chaos plan —
// when a Backend or a test has one; cfg's own kernel fields are unused.
func newServer(cfg Config, kernel dgd.Config) (*Server, error) {
	if len(cfg.Conns) == 0 {
		return nil, fmt.Errorf("no agent connections: %w", ErrConfig)
	}
	for i, c := range cfg.Conns {
		if c == nil {
			return nil, fmt.Errorf("nil connection %d: %w", i, ErrConfig)
		}
	}
	if err := dgd.ValidateRound(kernel, len(cfg.Conns), ErrConfig); err != nil {
		return nil, err
	}
	s := &Server{conns: cfg.Conns, timeout: cfg.RoundTimeout, kernel: kernel}
	if s.timeout <= 0 {
		s.timeout = 5 * time.Second
	}
	return s, nil
}

// roundReply is one agent's response to a round broadcast.
type roundReply struct {
	agent    int
	gradient []float64
	err      error
}

// roundClock is the one context every request of a Run carries: a deadline
// that start moves each round, enforced by one reused timer, over the run
// context's values and cancellation. Its Done channel closes when the
// round's deadline passes or the run context ends, and a new one is made
// only for a round after one that closed it, so a round allocates nothing.
type roundClock struct {
	context.Context // the run's: Value comes from it
	timeout         time.Duration
	timer           *time.Timer
	stopRun         func() bool // releases the AfterFunc that watches the run

	mu        sync.Mutex
	deadline  time.Time
	done      chan struct{}
	err       error // nil while done is open
	cancelled bool  // the run context ended: done stays closed
}

func newRoundClock(run context.Context, timeout time.Duration) *roundClock {
	c := &roundClock{Context: run, timeout: timeout, done: make(chan struct{})}
	c.timer = time.AfterFunc(timeout, c.fire)
	c.timer.Stop()
	c.stopRun = context.AfterFunc(run, c.cancel)
	return c
}

// start opens a round: its deadline is the timeout from now, or the run
// context's own deadline if that comes sooner.
func (c *roundClock) start() {
	deadline := time.Now().Add(c.timeout)
	if d, ok := c.Context.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = deadline
	if c.err != nil && !c.cancelled {
		c.done, c.err = make(chan struct{}), nil
	}
	c.timer.Reset(c.timeout)
}

// fire is the timer's callback. One armed for an earlier round may run
// after start has moved the deadline on; it closes nothing then.
func (c *roundClock) fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !time.Now().Before(c.deadline) {
		c.closeLocked(context.DeadlineExceeded)
	}
}

// cancel is the run context's AfterFunc.
func (c *roundClock) cancel() {
	err := c.Context.Err()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cancelled = true
	c.closeLocked(err)
}

func (c *roundClock) closeLocked(err error) {
	if c.err == nil {
		c.err = err
		close(c.done)
	}
}

// stop releases the timer and the run context's AfterFunc.
func (c *roundClock) stop() {
	c.stopRun()
	c.timer.Stop()
}

func (c *roundClock) Deadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline, true
}

func (c *roundClock) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

func (c *roundClock) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Run executes the protocol: per round it gathers the live agents' reports
// over the transport — eliminating silent agents under step S1, or muting
// them for the round under an enabled chaos plan — and hands them to the
// dgd.Round kernel, which owns the overlay, filter, and step. It does not
// close the connections; the caller owns their lifecycle.
func (s *Server) Run(ctx context.Context) (*Result, error) {
	n := len(s.conns)
	round, err := dgd.NewRound(s.kernel, n)
	if err != nil {
		return nil, err
	}
	x := round.X()
	// An enabled chaos plan degrades: an injected crash or omission, and with
	// it any failed request, is a system fault to ride out, not Byzantine
	// evidence to eliminate on.
	degrade := s.kernel.Chaos.Enabled()

	// live[i] indexes into s.conns; the slice shrinks on elimination.
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	f := s.kernel.F
	// Per-round buffers, allocated once and reused for the whole run:
	// slots[agent] holds the agent's reply for the current round (nil once
	// the agent is eliminated; the connection's own slice, consumed by Apply
	// before the next request overwrites it), replies is the reply channel (fully drained
	// every round, so reuse is safe), silent collects the round's deadline
	// misses, and omitFill stands in for a degraded agent's missing reply —
	// the agent stays in the run, so its slot must not read as eliminated.
	slots := make([][]float64, n)
	replies := make(chan roundReply, n)
	silent := make([]int, 0, n)
	var omitFill []float64
	if degrade {
		omitFill = make([]float64, len(x))
	}

	// One request goroutine per connection for the whole run: it asks its
	// agent for each round it is sent, under the run's one round clock, and
	// answers on replies. Every path out of Run closes the rounds, waits for
	// all of them to return and releases the clock.
	clock := newRoundClock(ctx, s.timeout)
	requests := make([]chan int, n)
	var workers sync.WaitGroup
	defer func() {
		for _, c := range requests {
			close(c)
		}
		workers.Wait()
		clock.stop()
	}()
	for i, conn := range s.conns {
		requests[i] = make(chan int)
		workers.Add(1)
		go func() {
			defer workers.Done()
			for t := range requests[i] {
				g, err := conn.RequestGradient(clock, t, x)
				replies <- roundReply{agent: i, gradient: g, err: err}
			}
		}()
	}

	res := &Result{}
	for t := 0; t < s.kernel.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("round %d: %w", t, err)
		}
		if err := round.Record(t); err != nil {
			return nil, err
		}

		// Broadcast the round to all live agents in parallel and collect
		// replies until the deadline. Replies land in per-agent slots and
		// are aggregated in agent-index order, so the filter input — and
		// with it the whole trajectory — is independent of reply timing.
		// That determinism is what lets a cluster run reproduce an
		// in-process run byte for byte.
		clock.start()
		for _, idx := range live {
			requests[idx] <- t
		}
		silent = silent[:0]
		for range live {
			rep := <-replies
			switch {
			case rep.err == nil && len(rep.gradient) == len(x):
				slots[rep.agent] = rep.gradient
			default:
				// Timeouts, transport failures, and malformed replies all
				// mark the agent as faulty under synchrony.
				silent = append(silent, rep.agent)
			}
		}

		if err := ctx.Err(); err != nil {
			// The run context (not the round deadline) expired mid-round:
			// the missing replies are a cancellation, not evidence of
			// faulty agents.
			return nil, fmt.Errorf("run cancelled at round %d: %w", t, err)
		}

		switch {
		case len(silent) == 0:
		case degrade:
			// Graceful degradation: a failed request becomes a one-round
			// omission routed into the overlay's partial-aggregation
			// machinery, which tallies it. The agent stays in the system —
			// next round it reports again — and no count of failures can
			// raise ErrTooManyFailures.
			for _, idx := range silent {
				slots[idx] = omitFill
				round.OmitNext(idx)
			}
		case len(silent) > f:
			return nil, fmt.Errorf("round %d: %d silent agents with budget f=%d: %w",
				t, len(silent), f, ErrTooManyFailures)
		default:
			// Step S1: remove the agents — a nil slot from here on; every
			// other live agent just replied — and shrink both n and f.
			f -= len(silent)
			res.Eliminated = append(res.Eliminated, silent...)
			for _, idx := range silent {
				slots[idx] = nil
			}
			live = slices.DeleteFunc(live, func(idx int) bool { return slots[idx] == nil })
		}
		if err := round.Apply(t, f, slots); err != nil {
			return nil, err
		}
	}
	if err := round.Record(s.kernel.Rounds); err != nil {
		return nil, err
	}
	res.X = x
	res.Trace = round.Trace()
	res.FinalN = len(live)
	res.FinalF = f
	res.Faults.Add(round.Faults())
	res.Degraded = !res.Faults.IsZero()
	return res, nil
}
