package p2p

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"byzopt/internal/aggregate"
	"byzopt/internal/byzantine"
	"byzopt/internal/costfunc"
	"byzopt/internal/dgd"
	"byzopt/internal/vecmath"
)

// referenceBroadcast is the textbook EIG protocol, kept as the specification
// the flat engine is tested against: every process's view is a map from the
// tree path to the value received for it, the relay rounds walk explicit
// paths, and the decision is the recursive strict-majority newval. Arguments
// are taken as valid.
func referenceBroadcast(n, f, sender int, value string, byz map[int]Distorter) []string {
	views := make([]map[string]string, n)
	for p := range views {
		views[p] = make(map[string]string)
	}
	rootPath := []int{sender}
	for p := 0; p < n; p++ {
		v := value
		if d, bad := byz[sender]; bad {
			v = d.Relay(rootPath, p, value)
		}
		views[p][refKey(rootPath)] = v
	}
	levelPaths := [][]int{rootPath}
	for level := 1; level <= f; level++ {
		var nextPaths [][]int
		for _, sigma := range levelPaths {
			for j := 0; j < n; j++ {
				if slices.Contains(sigma, j) {
					continue
				}
				child := append(slices.Clone(sigma), j)
				honestView := views[j][refKey(sigma)]
				for p := 0; p < n; p++ {
					v := honestView
					if d, bad := byz[j]; bad {
						v = d.Relay(child, p, honestView)
					}
					views[p][refKey(child)] = v
				}
				nextPaths = append(nextPaths, child)
			}
		}
		levelPaths = nextPaths
	}
	decisions := make([]string, n)
	for p := range decisions {
		decisions[p] = refResolve(views[p], rootPath, n, f)
	}
	return decisions
}

func refKey(path []int) string { return fmt.Sprint(path) }

// refResolve computes newval(sigma) for one process's view: a leaf's
// received value, else the strict majority of its children's newvals, else
// the default value.
func refResolve(view map[string]string, sigma []int, n, f int) string {
	if len(sigma) == f+1 {
		return view[refKey(sigma)]
	}
	counts := make(map[string]int)
	total := 0
	for j := 0; j < n; j++ {
		if slices.Contains(sigma, j) {
			continue
		}
		counts[refResolve(view, append(slices.Clone(sigma), j), n, f)]++
		total++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if 2*counts[k] > total {
			return k
		}
	}
	return DefaultValue
}

// recorder logs every Relay call it forwards. The path is copied into the
// log: it is only valid during the call.
type recorder struct {
	inner Distorter
	log   *[]string
}

func (r recorder) Relay(path []int, recipient int, honest string) string {
	*r.log = append(*r.log, fmt.Sprintf("%v to %d holding %q", path, recipient, honest))
	return r.inner.Relay(path, recipient, honest)
}

// randomInstance draws a sender value and up to f Byzantine processes (the
// sender among them about half the time) with strategies from all four
// distorter families; SeededLiar seeds are negative half the time.
func randomInstance(r *rand.Rand, n, f, sender int) (string, map[int]Distorter) {
	values := []string{"truth", DefaultValue, "split-0", EncodeVector([]float64{r.NormFloat64(), 2})}
	var ids []int
	if f > 0 && r.Intn(2) == 0 {
		ids = append(ids, sender)
	}
	for want := r.Intn(f + 1); len(ids) < want; {
		if id := r.Intn(n); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	byz := make(map[int]Distorter, len(ids))
	for _, id := range ids {
		switch r.Intn(4) {
		case 0:
			byz[id] = SplitLiar{}
		case 1:
			byz[id] = ConsistentLiar{Value: values[r.Intn(len(values))]}
		case 2:
			byz[id] = SeededLiar{Seed: r.Int63() - r.Int63()}
		default:
			byz[id] = byzantine.NewEquivocate(r.Int63() - r.Int63())
		}
	}
	return values[r.Intn(len(values))], byz
}

// checkAgainstReference runs one instance through Broadcast and the
// reference, each behind its own recorders, and compares the decisions and
// the Relay call sequences (path, recipient, honest).
func checkAgainstReference(t *testing.T, n, f, sender int, seed int64) {
	t.Helper()
	value, byz := randomInstance(rand.New(rand.NewSource(seed)), n, f, sender)
	var gotLog, wantLog []string
	recorded := func(log *[]string) map[int]Distorter {
		m := make(map[int]Distorter, len(byz))
		for id, d := range byz {
			m[id] = recorder{d, log}
		}
		return m
	}
	got, err := Broadcast(n, f, sender, value, recorded(&gotLog))
	if err != nil {
		t.Fatal(err)
	}
	want := referenceBroadcast(n, f, sender, value, recorded(&wantLog))
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d f=%d sender=%d seed=%d: decided %q, reference %q", n, f, sender, seed, got, want)
	}
	if !slices.Equal(gotLog, wantLog) {
		t.Fatalf("n=%d f=%d sender=%d seed=%d: %d Relay calls differ from the reference's %d",
			n, f, sender, seed, len(gotLog), len(wantLog))
	}
}

var referenceShapes = [][2]int{{1, 0}, {4, 0}, {4, 1}, {5, 1}, {7, 2}, {8, 2}, {10, 3}}

func TestBroadcastMatchesReference(t *testing.T) {
	instances := 0
	for _, nf := range referenceShapes {
		n, f := nf[0], nf[1]
		count := 250
		if f == 3 {
			count = 100 // the reference takes milliseconds here
		}
		for i := 0; i < count; i++ {
			checkAgainstReference(t, n, f, i%n, int64(1000*n+i))
		}
		instances += count
	}
	if instances < 1500 {
		t.Fatalf("only %d instances", instances)
	}
}

func FuzzBroadcastMatchesReference(f *testing.F) {
	for i, nf := range referenceShapes {
		f.Add(uint8(nf[0]), uint8(nf[1]), uint8(i), int64(i)-3)
	}
	f.Fuzz(func(t *testing.T, n, faults, sender uint8, seed int64) {
		n = 1 + n%10
		faults %= (n-1)/3 + 1
		checkAgainstReference(t, int(n), int(faults), int(sender%n), seed)
	})
}

func TestEIGNodeCountIsMessageCost(t *testing.T) {
	for _, nf := range append(referenceShapes, [2]int{13, 4}) {
		want, err := MessageCost(nf[0], nf[1])
		if err != nil {
			t.Fatal(err)
		}
		e := newEIG(nf[0], nf[1])
		if got := e.base[nf[1]+1]; int64(got) != want {
			t.Errorf("n=%d f=%d: engine has %d nodes, MessageCost %d", nf[0], nf[1], got, want)
		}
		if got, want := len(e.vals), nf[0]*int(want); got != want {
			t.Errorf("n=%d f=%d: %d view slots, want %d", nf[0], nf[1], got, want)
		}
	}
}

// TestEIGReuseMatchesFresh drives one engine through every sender for several
// rounds, as p2p.run does, against a fresh engine per broadcast.
func TestEIGReuseMatchesFresh(t *testing.T) {
	for _, nf := range [][2]int{{4, 1}, {7, 2}, {10, 3}} {
		n, f := nf[0], nf[1]
		e := newEIG(n, f)
		r := rand.New(rand.NewSource(int64(n)))
		for round := 0; round < 3; round++ {
			for _, sender := range r.Perm(n) {
				value, byz := randomInstance(r, n, f, sender)
				liars := make([]Distorter, n)
				for id, d := range byz {
					liars[id] = d
				}
				e.broadcast(sender, value, liars)
				want, err := Broadcast(n, f, sender, value, byz)
				if err != nil {
					t.Fatal(err)
				}
				for p := range want {
					if got := e.strs[e.decision(p)]; got != want[p] {
						t.Fatalf("n=%d f=%d round %d sender %d: reused engine decided %q at %d, fresh %q",
							n, f, round, sender, got, p, want[p])
					}
				}
			}
		}
	}
}

func TestSeededLiarNegativeSeedPlaysAllStrategies(t *testing.T) {
	liar := SeededLiar{Seed: -1_000_003}
	seen := map[string]bool{}
	for a := 0; a < 7; a++ {
		for recipient := 0; recipient < 7; recipient++ {
			switch v := liar.Relay([]int{0, a}, recipient, "honest"); {
			case v == "honest", v == DefaultValue:
				seen[v] = true
			default:
				seen[v[:strings.IndexByte(v, '-')]] = true
			}
		}
	}
	for _, strategy := range []string{"honest", DefaultValue, "garbage", "split"} {
		if !seen[strategy] {
			t.Errorf("strategy %q never played under a negative seed (saw %v)", strategy, seen)
		}
	}
}

// TestWarmBroadcastAllocs: a warmed engine's broadcast allocates nothing of
// its own, across sender changes, with honest relayers and with a liar whose
// Relay does not allocate.
func TestWarmBroadcastAllocs(t *testing.T) {
	value := EncodeVector([]float64{1, 2})
	for name, liar := range map[string]Distorter{"honest": nil, "consistent-liar": ConsistentLiar{Value: "forged"}} {
		e := newEIG(7, 2)
		liars := make([]Distorter, 7)
		liars[3] = liar
		sender := 0
		broadcast := func() {
			e.broadcast(sender, value, liars)
			sender = (sender + 1) % 7
		}
		broadcast()
		if allocs := testing.AllocsPerRun(100, broadcast); allocs != 0 {
			t.Errorf("%s: warmed broadcast allocates %.2f times", name, allocs)
		}
	}
}

// TestRoundAllocs pins what one decentralized round costs at n=7, f=2, d=2
// under gradient-reverse: 7 allocations, one per sender — its report's
// payload string. The two Byzantine agents' reports cost nothing: the
// collector hands dgd's Faulty wrapper an arena row, and the inner agent and
// the behavior both write it in place. Measured as dgd's steady-state gate
// does, as the difference between a 1-round and a 101-round run.
func TestRoundAllocs(t *testing.T) {
	const n, d = 7, 2
	r := rand.New(rand.NewSource(31))
	peers := make([]Peer, n)
	for i := range peers {
		cost, err := costfunc.NewSingleRowLeastSquares([]float64{r.NormFloat64(), r.NormFloat64()}, r.NormFloat64())
		if err != nil {
			t.Fatal(err)
		}
		agent, err := dgd.NewHonest(cost)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if agent, err = dgd.NewFaulty(agent, byzantine.GradientReverse{}); err != nil {
				t.Fatal(err)
			}
		}
		peers[i] = Peer{Agent: agent}
	}
	runOnce := func(rounds int) func() {
		cfg := Config{Peers: peers, F: 2, Filter: aggregate.CWTM{}, X0: make([]float64, d), Rounds: rounds, Reference: vecmath.Ones(d)}
		return func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	runOnce(1)() // warm the lazy per-cost gradient buffers
	base := testing.AllocsPerRun(10, runOnce(1))
	extended := testing.AllocsPerRun(10, runOnce(101))
	if perRound := (extended - base) / 100; perRound > n {
		t.Fatalf("a round allocates %.2f times, want at most %d (1-round run %.0f, 101-round run %.0f)",
			perRound, n, base, extended)
	}
}
