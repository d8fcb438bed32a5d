package p2p

import (
	"context"
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
	views, _ := referenceViews(n, f, sender, value, byz)
	decisions := make([]string, n)
	for p := range decisions {
		decisions[p] = refResolve(views[p], []int{sender}, n, f)
	}
	return decisions
}

// referenceViews runs the reference's relay rounds: views[p] maps every tree
// path to the value process p received for it, and paths lists the tree's
// paths in level order.
func referenceViews(n, f, sender int, value string, byz map[int]Distorter) (views []map[string]string, paths [][]int) {
	views = make([]map[string]string, n)
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
	paths = levelPaths
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
		paths = append(paths, nextPaths...)
	}
	return views, paths
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
// reference, each behind its own recorders, and compares the decisions. The
// engine's Relay calls (path, recipient, honest) must be the reference's in
// its order with some left out: a Distorter is pure, so a call the engine
// skips is one whose answer the decisions do not depend on.
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
	if !isSubsequence(gotLog, wantLog) {
		t.Fatalf("n=%d f=%d sender=%d seed=%d: the %d Relay calls are not an in-order subsequence of the reference's %d",
			n, f, sender, seed, len(gotLog), len(wantLog))
	}
}

// isSubsequence reports whether xs is ys with some elements left out.
func isSubsequence(xs, ys []string) bool {
	for _, y := range ys {
		if len(xs) > 0 && xs[0] == y {
			xs = xs[1:]
		}
	}
	return len(xs) == 0
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

// liarSlice is byz as the engine takes it: one strategy per process id.
func liarSlice(n int, byz map[int]Distorter) []Distorter {
	liars := make([]Distorter, n)
	for id, d := range byz {
		liars[id] = d
	}
	return liars
}

// equivocators puts count byzantine.Equivocate liars on the ids from first.
func equivocators(first, count int) map[int]Distorter {
	byz := make(map[int]Distorter, count)
	for id := first; id < first+count; id++ {
		byz[id] = byzantine.NewEquivocate(int64(17 - 5*id))
	}
	return byz
}

// counted counts the Relay calls it forwards.
type counted struct {
	Distorter
	calls *int
}

func (c counted) Relay(path []int, recipient int, honest string) string {
	*c.calls++
	return c.Distorter.Relay(path, recipient, honest)
}

// tally is byz with every strategy counting its Relay calls into calls.
func tally(byz map[int]Distorter, calls *int) map[int]Distorter {
	m := make(map[int]Distorter, len(byz))
	for id, d := range byz {
		m[id] = counted{d, calls}
	}
	return m
}

// decided is what the n processes decided in the engine's last broadcast.
func decided(e *eig) []string {
	out := make([]string, e.n)
	for p := range out {
		out[p] = e.strs[e.decision(p)]
	}
	return out
}

// TestBuiltNodes pins what a broadcast builds: the root alone when no peer
// distorts and for an honest sender under f liars, never more than
// MessageCost(n, f), and never more Relay calls than the reference makes.
// Under f Equivocates on the ids from 1, as BenchmarkWarmBroadcast runs them, a
// liar sender's broadcast builds the nodes its fellow liars relay and their
// children, and each sender's counts are pinned: averaged over the senders,
// 2.71 nodes and 4 calls at (7, 2), 8.5 and 15 at (10, 3), 33.3 and 64 at
// (13, 4).
func TestBuiltNodes(t *testing.T) {
	for _, nf := range append(referenceShapes, [2]int{13, 4}) {
		n, f := nf[0], nf[1]
		e := newEIG(n, f)
		if e.broadcast(0, "v", make([]Distorter, n)); e.built != 1 {
			t.Errorf("n=%d f=%d: %d nodes built with no distorting peer, want 1", n, f, e.built)
		}
		if e.broadcast(0, "v", liarSlice(n, equivocators(1, f))); e.built != 1 {
			t.Errorf("n=%d f=%d: %d nodes built under f liars and an honest sender, want 1", n, f, e.built)
		}
	}
	for _, c := range []struct{ n, f, built, calls int }{
		{7, 2, 7, 14}, {10, 3, 26, 50}, {13, 4, 106, 208},
	} {
		e := newEIG(c.n, c.f)
		for sender := range c.n {
			calls, wantBuilt, wantCalls := 0, 1, 0
			if sender >= 1 && sender <= c.f {
				wantBuilt, wantCalls = c.built, c.calls
			}
			e.broadcast(sender, "v", liarSlice(c.n, tally(equivocators(1, c.f), &calls)))
			if e.built != wantBuilt || calls != wantCalls {
				t.Errorf("n=%d f=%d sender %d under f liars: %d nodes built and %d Relay calls, want %d and %d",
					c.n, c.f, sender, e.built, calls, wantBuilt, wantCalls)
			}
		}
	}
	r := rand.New(rand.NewSource(24))
	for draw := 0; draw < 1000; draw++ {
		nf := referenceShapes[draw%len(referenceShapes)]
		n, f := nf[0], nf[1]
		sender := r.Intn(n)
		value, byz := randomInstance(r, n, f, sender)
		got, want := 0, 0
		e := newEIG(n, f)
		e.broadcast(sender, value, liarSlice(n, tally(byz, &got)))
		referenceBroadcast(n, f, sender, value, tally(byz, &want))
		if full, _ := MessageCost(n, f); int64(e.built) > full {
			t.Fatalf("draw %d (n=%d f=%d): %d nodes built, more than MessageCost %d", draw, n, f, e.built, full)
		}
		if got > want {
			t.Fatalf("draw %d (n=%d f=%d, %d liars): %d Relay calls, more than the reference's %d", draw, n, f, len(byz), got, want)
		}
	}
}

// TestBroadcastBeyondBudgetMatchesReference draws up to 2f+1 liars for a tree
// of depth f. Within the budget agreement hides most of what a process's own
// vote computes — every column resolves the root alike — so only here do the
// columns reach the decisions apart, and each is held to the reference.
func TestBroadcastBeyondBudgetMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for draw := 0; draw < 1200; draw++ {
		nf := referenceShapes[2+draw%4] // (4, 1) to (8, 2)
		n, f := nf[0], nf[1]
		sender := r.Intn(n)
		value, byz := randomInstance(r, n, 2*f+1, sender)
		e := newEIG(n, f)
		e.broadcast(sender, value, liarSlice(n, byz))
		if got, want := decided(e), referenceBroadcast(n, f, sender, value, byz); !slices.Equal(got, want) {
			t.Fatalf("draw %d (n=%d f=%d sender=%d, %d liars): decided %q, reference %q",
				draw, n, f, sender, len(byz), got, want)
		}
	}
}

// told is a liar that tells recipient p the p-th string, whatever the node.
type told []string

func (s told) Relay(path []int, recipient int, honest string) string { return s[recipient] }

// TestSettleBranches walks the engine's three rules branch by branch, each case
// against the reference at all n processes (the Byzantine ones included), the
// hand-checked ones against their value too.
func TestSettleBranches(t *testing.T) {
	const bottom = DefaultValue
	cases := []struct {
		name      string
		n, f      int
		sender    int
		byz       map[int]Distorter
		built     int
		decisions []string // nil: the reference's alone
	}{
		{name: "no liar: the root settles as relayed", n: 7, f: 2, sender: 4, built: 1,
			decisions: []string{"v", "v", "v", "v", "v", "v", "v"}},
		{name: "the sender the only liar: the off-path majority", n: 7, f: 2, sender: 2, built: 1,
			byz:       map[int]Distorter{2: told{"a", "a", "b", "a", "b", "a", bottom}},
			decisions: []string{"a", "a", "a", "a", "a", "a", "a"}},
		// Three a and three b off the path; counting what the sender told
		// itself would make a a majority of seven.
		{name: "the sender the only liar: no off-path majority", n: 7, f: 2, sender: 2, built: 1,
			byz:       map[int]Distorter{2: told{"a", "a", "a", "a", "b", "b", "b"}},
			decisions: []string{bottom, bottom, bottom, bottom, bottom, bottom, bottom}},
		{name: "the sender the only liar: a SplitLiar tie", n: 7, f: 2, sender: 0, built: 1,
			byz:       map[int]Distorter{0: SplitLiar{}},
			decisions: []string{bottom, bottom, bottom, bottom, bottom, bottom, bottom}},
		{name: "the sender the only liar at f=1, one vote from a tie", n: 4, f: 1, sender: 3, built: 1,
			byz:       map[int]Distorter{3: told{"a", "b", "a", "b"}},
			decisions: []string{"a", "a", "a", "a"}},
		{name: "an honest sender and f liars: the root settles as relayed", n: 7, f: 2, sender: 0, built: 1,
			byz: equivocators(3, 2), decisions: []string{"v", "v", "v", "v", "v", "v", "v"}},
		// Only the root leaves a liar off its path: of its six children the
		// honest relays settle as relayed and the second liar's node, whose
		// path holds both liars, settles by one vote: 1 + 6 nodes.
		{name: "a liar sender and a second liar: 7 nodes", n: 7, f: 2, sender: 1, built: 7,
			byz: equivocators(1, 2)},
		// The nodes relayed by liars alone are built down to 6.7.8 and 6.8.7,
		// which settle at level 2 = f-1: 1 + 9 + 2*8 of the 586 nodes.
		{name: "three liars at (10, 3), the sender one: settled at level f-1", n: 10, f: 3, sender: 6, built: 26,
			byz: equivocators(6, 3)},
		// Two liars at f=1 are beyond the budget (Broadcast refuses them). At
		// n-f = 2*liars+1 = 5 the honest relays still settle: here the honest
		// sender's three honest children outvote two liars.
		{name: "beyond the budget at n-f = 2*liars+1: an honest sender settles", n: 6, f: 1, sender: 0, built: 1,
			byz:       map[int]Distorter{1: ConsistentLiar{"x"}, 2: ConsistentLiar{"x"}},
			decisions: []string{"v", "v", "v", "v", "v", "v"}},
		// One process fewer, n-f = 2*liars, and the same two liars tie the root
		// at every process: settling it as relayed would decide v.
		{name: "beyond the budget at n-f = 2*liars: an honest sender is expanded", n: 5, f: 1, sender: 0, built: 5,
			byz:       map[int]Distorter{1: ConsistentLiar{"x"}, 2: ConsistentLiar{"x"}},
			decisions: []string{bottom, bottom, bottom, bottom, bottom}},
		// Below the lying sender the honest leaves read a, a, b, c: two alike of
		// five children, one short, and every process counts its own column.
		{name: "beyond the budget at n-f = 2*liars+1: the alike children one short of a majority", n: 6, f: 1, sender: 0, built: 6,
			byz:       map[int]Distorter{0: told{"x", "y", "a", "a", "b", "c"}, 1: told{"a", "b", "a", "c", "a", "b"}},
			decisions: []string{"a", bottom, "a", bottom, "a", bottom}},
		// At n-f < 2*liars, so that the columns differ at the root: leaves a
		// and b alike, the liar's leaf tips each process.
		{name: "two liars at f=1: the per-process vote decides", n: 4, f: 1, sender: 0, built: 4,
			byz:       map[int]Distorter{0: told{"x", "y", "a", "b"}, 1: told{"a", "b", "c", "a"}},
			decisions: []string{"a", "b", bottom, "a"}},
	}
	for _, c := range cases {
		e := newEIG(c.n, c.f)
		e.broadcast(c.sender, "v", liarSlice(c.n, c.byz))
		if e.built != c.built {
			t.Errorf("%s: %d nodes built, want %d", c.name, e.built, c.built)
		}
		want := referenceBroadcast(c.n, c.f, c.sender, "v", c.byz)
		if c.decisions != nil && !slices.Equal(want, c.decisions) {
			t.Fatalf("%s: the reference decides %q, the case says %q", c.name, want, c.decisions)
		}
		if got := decided(e); !slices.Equal(got, want) {
			t.Errorf("%s: decided %q, reference %q", c.name, got, want)
		}
	}
}

// TestEIGReuseMatchesFresh drives one engine through every sender for several
// rounds, as Backend.Run does, against a fresh engine per broadcast. The liar set
// changes under it from one broadcast to the next — none (the first broadcast
// sizes nothing), f of them (the whole tree), none again over the arrays the
// full tree left behind, then a random draw.
func TestEIGReuseMatchesFresh(t *testing.T) {
	for _, nf := range [][2]int{{4, 1}, {7, 2}, {10, 3}} {
		n, f := nf[0], nf[1]
		e := newEIG(n, f)
		r := rand.New(rand.NewSource(int64(n)))
		for round := 0; round < 3; round++ {
			for _, sender := range r.Perm(n) {
				value, drawn := randomInstance(r, n, f, sender)
				for turn, byz := range []map[int]Distorter{nil, equivocators((sender+1)%(n-f), f), nil, drawn} {
					e.broadcast(sender, value, liarSlice(n, byz))
					want, err := Broadcast(n, f, sender, value, byz)
					if err != nil {
						t.Fatal(err)
					}
					if got := decided(e); !slices.Equal(got, want) {
						t.Fatalf("n=%d f=%d round %d sender %d turn %d: reused engine decided %q, fresh %q",
							n, f, round, sender, turn, got, want)
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
// its own, across sender changes, with honest relayers and with liars whose
// Relay does not allocate — every strategy in the package, and two
// Equivocates with the sender rotating through both. The warm-up is one turn
// of every sender: the strategies are deterministic, so after it the interned
// strings of a broadcast are ones the engine has held before.
func TestWarmBroadcastAllocs(t *testing.T) {
	value := EncodeVector([]float64{1, 2})
	for name, byz := range map[string]map[int]Distorter{
		"honest":          nil,
		"consistent-liar": {3: ConsistentLiar{Value: "forged"}},
		"split-liar":      {3: SplitLiar{}},
		"seeded-liar":     {3: SeededLiar{Seed: -1_000_003}},
		"two-equivocate":  equivocators(3, 2),
	} {
		e := newEIG(7, 2)
		liars := liarSlice(7, byz)
		sender := 0
		broadcast := func() {
			e.broadcast(sender, value, liars)
			sender = (sender + 1) % 7
		}
		for range liars {
			broadcast()
		}
		if allocs := testing.AllocsPerRun(100, broadcast); allocs != 0 {
			t.Errorf("%s: warmed broadcast allocates %.2f times", name, allocs)
		}
	}
}

// TestHonestSenderValidity is the property Backend.Run decides an honest
// sender by without broadcasting: with n > 3f and at most f liars, every
// process that does not lie decides the sender's value, whatever the liars
// relay. The budget is what makes it hold: one liar more, and some honest
// process decides something else.
func TestHonestSenderValidity(t *testing.T) {
	instances := 0
	r := rand.New(rand.NewSource(26))
	for _, nf := range referenceShapes {
		n, f := nf[0], nf[1]
		count := 250
		if f == 3 {
			count = 100 // the reference takes milliseconds here
		}
		for i := 0; i < count; i++ {
			sender := r.Intn(n)
			value, byz := randomInstance(r, n, f, sender)
			delete(byz, sender)
			decisions := referenceBroadcast(n, f, sender, value, byz)
			for p, d := range decisions {
				if _, lies := byz[p]; !lies && d != value {
					t.Fatalf("n=%d f=%d sender=%d, %d liars: process %d decided %q, the sender holds %q",
						n, f, sender, len(byz), p, d, value)
				}
			}
		}
		instances += count
	}
	if instances < 1500 {
		t.Fatalf("only %d instances", instances)
	}

	drawn, broken := 0, 0
	for draw := 0; draw < 400; draw++ {
		nf := referenceShapes[2+2*(draw%2)] // (4, 1) and (7, 2)
		n, f := nf[0], nf[1]
		sender := r.Intn(n)
		value, byz := randomInstance(r, n, f+1, sender)
		if delete(byz, sender); len(byz) != f+1 {
			continue
		}
		drawn++
		for p, d := range referenceBroadcast(n, f, sender, value, byz) {
			if _, lies := byz[p]; !lies && d != value {
				broken++
				break
			}
		}
	}
	if broken == 0 {
		t.Fatalf("f+1 liars never moved an honest process off an honest sender's value in %d draws", drawn)
	}
	t.Logf("f+1 liars moved an honest process off the sender's value in %d of %d draws", broken, drawn)
}

// TestHonestRelayValidity is the property the engine settles a node by when
// its last relayer does not lie: on the reference's views such a node
// resolves, at every process (the liars included), to the value the relayer
// told them all, whenever n-f > 2*liars — within the budget and beyond it. It
// is sender validity one level down, and as f+1 liars break that, draws with
// n-f <= 2*liars break this.
func TestHonestRelayValidity(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	shapes := [][2]int{{4, 1}, {5, 1}, {7, 1}, {7, 2}, {8, 2}, {10, 3}}
	held, beyond, off, broken := 0, 0, 0, 0
	for draw := 0; draw < 360; draw++ {
		nf := shapes[draw%len(shapes)]
		n, f := nf[0], nf[1]
		sender := r.Intn(n)
		value, byz := randomInstance(r, n, 2*f+1, sender)
		views, paths := referenceViews(n, f, sender, value, byz)
		settles, violated := n-f > 2*len(byz), false
		for _, path := range paths {
			if _, lies := byz[path[len(path)-1]]; lies {
				continue
			}
			relayed := views[0][refKey(path)]
			for p, view := range views {
				if got := refResolve(view, path, n, f); got != relayed {
					if settles {
						t.Fatalf("draw %d (n=%d f=%d, %d liars): node %v resolves to %q at process %d, its relayer told %q",
							draw, n, f, len(byz), path, got, p, relayed)
					}
					violated = true
				}
			}
		}
		switch {
		case settles:
			held++
			if len(byz) > f {
				beyond++
			}
		default:
			off++
			if violated {
				broken++
			}
		}
	}
	if beyond == 0 || broken == 0 {
		t.Fatalf("%d draws held the property, %d of them beyond the budget; %d of %d draws with n-f <= 2*liars broke it; want some of each",
			held, beyond, broken, off)
	}
	t.Logf("held in %d draws (%d beyond the budget); n-f <= 2*liars broke it in %d of %d", held, beyond, broken, off)
}

// TestRoundAllocs pins what one decentralized round costs at n=7, f=2, d=2:
// nothing, with or without distorting senders. A sender that does not
// distort has its report copied into its row; a distorting sender's
// broadcast reads its report's encoding in place, through a string viewing
// the reused payload buffer, on an engine built once a run. The two
// Byzantine agents' reports cost nothing either: the collector hands dgd's
// Faulty wrapper an arena row, and the inner agent and the behavior both
// write it in place. Backend.Run once yielded the processor every round so
// that a round's allocations could not run the heap past its goal while a
// mark phase waited to be scheduled; a round that allocates nothing cannot,
// so the round loop has no yield, and this pin keeps one from becoming
// needed again. Measured as dgd's steady-state gate does, as the difference
// between a 1-round and a 101-round run.
func TestRoundAllocs(t *testing.T) {
	for _, c := range []struct {
		name     string
		behavior func(i int) byzantine.Behavior
	}{
		{"gradient-reverse", func(int) byzantine.Behavior { return byzantine.GradientReverse{} }},
		{"equivocate", func(i int) byzantine.Behavior { return byzantine.NewEquivocate(int64(11 + i)) }},
	} {
		if perRound, base, extended := roundAllocs(t, lineAgents(t, c.behavior)); perRound != 0 {
			t.Errorf("%s: a round allocates %.2f times, want 0 (1-round run %.0f, 101-round run %.0f)",
				c.name, perRound, base, extended)
		}
	}
}

// roundAllocs is the allocations a round of Backend.Run over agents costs
// at f = 2 in two dimensions, with the 1-round and 101-round runs it is the
// difference of.
func roundAllocs(t *testing.T, agents []dgd.Agent) (perRound, base, extended float64) {
	t.Helper()
	runOnce := func(rounds int) func() {
		cfg := dgd.Config{Agents: agents, F: 2, Filter: aggregate.CWTM{}, X0: make([]float64, 2), Rounds: rounds, Reference: vecmath.Ones(2)}
		return func() {
			if _, err := (Backend{}).Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	runOnce(1)() // warm the lazy per-cost gradient buffers
	base = testing.AllocsPerRun(10, runOnce(1))
	extended = testing.AllocsPerRun(10, runOnce(101))
	return (extended - base) / 100, base, extended
}

// lineAgents is seven single-row least-squares agents in two dimensions,
// the first two Byzantine with behavior(i).
func lineAgents(t *testing.T, behavior func(i int) byzantine.Behavior) []dgd.Agent {
	t.Helper()
	r := rand.New(rand.NewSource(31))
	agents := make([]dgd.Agent, 7)
	for i := range agents {
		cost, err := costfunc.NewObservation([]float64{r.NormFloat64(), r.NormFloat64()}, r.NormFloat64())
		if err != nil {
			t.Fatal(err)
		}
		agent, err := dgd.NewHonest(cost)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if agent, err = dgd.NewFaulty(agent, behavior(i)); err != nil {
				t.Fatal(err)
			}
		}
		agents[i] = agent
	}
	return agents
}

// senderLog forwards Relay calls, counting them and those made in the
// broadcast of a sender that does not distort.
type senderLog struct {
	Distorter
	distorting          []bool
	calls, honestSender *int
}

func (l senderLog) Relay(path []int, recipient int, honest string) string {
	*l.calls++
	if !l.distorting[path[0]] {
		*l.honestSender++
	}
	return l.Distorter.Relay(path, recipient, honest)
}

// TestRelayOnlyForDistortingSenders: under f equivocators Backend.Run asks a
// Distorter to relay only in the broadcast of a distorting sender. The
// others are decided by validity, with no tree to relay in.
func TestRelayOnlyForDistortingSenders(t *testing.T) {
	agents := lineAgents(t, func(int) byzantine.Behavior { return byzantine.GradientReverse{} })
	distorting := []bool{true, true, false, false, false, false, false}
	calls, honest := 0, 0
	for i := range 2 {
		liar := senderLog{SeededLiar{Seed: int64(5 + i)}, distorting, &calls, &honest}
		var err error
		if agents[i], err = Equivocating(agents[i], liar); err != nil {
			t.Fatal(err)
		}
	}
	cfg := dgd.Config{Agents: agents, F: 2, Filter: aggregate.CGE{}, X0: make([]float64, 2), Rounds: 20}
	if _, err := (Backend{}).Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || honest != 0 {
		t.Errorf("%d Relay calls, %d of them in an honest sender's broadcast; want some, and none there", calls, honest)
	}
}

// BenchmarkWarmBroadcast times a broadcast on one reused engine, as Backend.Run
// makes them for a distorting sender: the sender rotates over all n, and 0, 1
// or f Equivocates sit on the ids from 1, so a liar is the sender up to f
// times a turn (Backend.Run broadcasts only those turns; the others time what
// the engine would do for an honest sender). built_nodes and relay_calls are
// what a broadcast builds and asks of its liars, averaged over one turn of
// senders (counted before the clock starts; TestBuiltNodes pins the f-liar
// rows).
func BenchmarkWarmBroadcast(b *testing.B) {
	value := EncodeVector([]float64{1, 2})
	for _, nf := range [][2]int{{7, 2}, {10, 3}, {13, 4}} {
		n, f := nf[0], nf[1]
		for _, count := range []int{0, 1, f} {
			b.Run(fmt.Sprintf("n=%d_f=%d/liars=%d", n, f, count), func(b *testing.B) {
				e, byz := newEIG(n, f), equivocators(1, count)
				built, calls := 0, 0
				for sender, tallied := 0, liarSlice(n, tally(byz, &calls)); sender < n; sender++ {
					e.broadcast(sender, value, tallied)
					built += e.built
				}
				liars := liarSlice(n, byz)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.broadcast(i%n, value, liars)
				}
				b.ReportMetric(float64(built)/float64(n), "built_nodes/op")
				b.ReportMetric(float64(calls)/float64(n), "relay_calls/op")
			})
		}
	}
}
