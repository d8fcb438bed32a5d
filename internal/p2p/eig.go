// Package p2p realizes the paper's peer-to-peer architecture (Figure 1,
// right): n agents on a complete network, up to f < n/3 Byzantine, with no
// trusted server. Section 1.4 notes that any server-based algorithm can be
// simulated in this model using the Byzantine broadcast primitive; this
// package implements that primitive — the classic synchronous exponential
// information gathering (EIG) protocol — and on top of it a fully
// decentralized DGD in which every honest agent applies the gradient filter
// locally to an identical, agreed-upon gradient vector set.
//
// The package owns only the gathering — report collection (dgd.Collector)
// and the EIG exchange, run only for a sender that distorts (an honest
// sender's report is what every honest peer decides, by EIG's validity). The
// update from the agreed set to the next estimate is the dgd.Round kernel the
// other substrates run too: every honest peer holds the same set and would
// compute the same step, so one instance takes it for all of them.
//
// Backend is the way in: it runs any dgd.Config — and therefore any sweep
// grid — over Byzantine broadcast unchanged, with observers and traces
// threaded through the decentralized loop, non-equivocating grids
// byte-identical to the in-process engine, and broadcast-layer equivocation
// (Distorter) as the one adversary only this substrate can express. An
// agent lies in the broadcast layer through its behavior
// (byzantine.Equivocate) or through Equivocating, which attaches any
// Distorter. Broadcast runs one exchange on its own.
package p2p

import (
	"errors"
	"fmt"
	"slices"

	"byzopt/internal/byzantine"
	"byzopt/internal/vecmath"
)

// ErrArgs is returned (wrapped) for invalid parameters.
var ErrArgs = errors.New("p2p: invalid arguments")

// DefaultValue is the fallback an EIG node decides when no strict majority
// exists among its children (the protocol's ⊥).
const DefaultValue = ""

// Distorter is the lying strategy of a Byzantine process during a
// broadcast: it chooses what to claim about tree node path when talking to
// a given recipient. An honest process always relays its true view.
//
// Relay must be a pure function of (path, recipient, honest). Broadcast
// calls it for the root when the liar is the sender, and for the liar's child
// of every node it expands: one relayed by a liar that leaves another
// distorting peer off its path. Below an honest relayer EIG's validity fixes
// what every process resolves (n > 3f and at most f liars, as Broadcast and
// Backend.Run require), so nothing is asked there — nothing at all for an
// honest sender, whose broadcast Backend.Run does not run. Calls come level
// by level, parents in level order, relayers then recipients ascending: the
// textbook protocol's calls in its order, some left out. A strategy that kept
// state between calls would see a different sequence from each. All four
// in-tree strategies — ConsistentLiar, SplitLiar, SeededLiar and
// byzantine.Equivocate — are pure.
type Distorter interface {
	// Relay returns the value the Byzantine process reports to recipient
	// for the given EIG tree path; honest is the value a correct process
	// would have relayed. path and honest are the engine's own storage:
	// read-only, and valid only during the call (copy them to keep them).
	Relay(path []int, recipient int, honest string) string
}

// ConsistentLiar reports the same fixed wrong value to every recipient.
type ConsistentLiar struct {
	Value string
}

// Relay implements Distorter.
func (c ConsistentLiar) Relay(path []int, recipient int, honest string) string { return c.Value }

// SplitLiar reports different values to different recipients, the classic
// equivocation attack Byzantine broadcast exists to defeat.
type SplitLiar struct{}

// Relay implements Distorter.
func (SplitLiar) Relay(path []int, recipient int, honest string) string {
	return splitLies[recipient%2]
}

// SplitLiar's two lies, built once so a relay allocates nothing.
var splitLies = [2]string{"split-0", "split-1"}

// SeededLiar pseudo-randomly garbles its relays — the truth, ⊥, one of 256
// garbage strings or a three-way split, chosen by a hash of the seed, the
// path and the recipient; used by property tests to search for agreement
// violations. It is byzantine.Equivocate's relay strategy under the seed.
type SeededLiar struct {
	Seed int64
}

// Relay implements Distorter.
func (s SeededLiar) Relay(path []int, recipient int, honest string) string {
	return byzantine.NewEquivocate(s.Seed).Relay(path, recipient, honest)
}

// Broadcast runs one synchronous EIG Byzantine broadcast among n processes
// with at most f Byzantine (n > 3f required), from the given sender holding
// value. byz maps Byzantine process indices to their lying strategies;
// processes absent from byz are honest.
//
// It returns the decided value of every process (indexed by process id).
// The protocol guarantees that all honest processes decide the same value,
// and that if the sender is honest they decide the sender's value. The
// entries for Byzantine processes are computed the same way but carry no
// guarantee (a Byzantine process's "decision" is meaningless anyway). Only
// the nodes of the MessageCost(n, f) tree whose value can still differ
// between processes are built: the root alone for an honest sender, however
// many liars relay.
func Broadcast(n, f, sender int, value string, byz map[int]Distorter) ([]string, error) {
	if n <= 0 || f < 0 || n <= 3*f {
		return nil, fmt.Errorf("EIG needs n > 3f, got n=%d f=%d: %w", n, f, ErrArgs)
	}
	if sender < 0 || sender >= n {
		return nil, fmt.Errorf("sender %d out of [0, %d): %w", sender, n, ErrArgs)
	}
	if len(byz) > f {
		return nil, fmt.Errorf("%d Byzantine processes exceed budget f=%d: %w", len(byz), f, ErrArgs)
	}
	liars := make([]Distorter, n)
	for id, d := range byz {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("byzantine id %d out of [0, %d): %w", id, n, ErrArgs)
		}
		liars[id] = d
	}
	e := newEIG(n, f)
	e.broadcast(sender, value, liars)
	decisions := make([]string, n)
	for p := range decisions {
		decisions[p] = e.strs[e.decision(p)]
	}
	return decisions, nil
}

// eig is the EIG engine for one fixed (n, f), reusable across senders and
// rounds. The full tree — its nodes are the paths of 1..f+1 distinct ids
// starting at the sender, MessageCost(n, f) of them — is the upper bound, not
// what a broadcast builds. A node's row is what the n processes hold for it:
// vals[c*n+p] is what the last relayer on c's path told process p and, once
// the node is resolved, what p takes the node's value to be. Three rules, all
// exact, keep the work to where a row can still differ between processes:
//
//   - Settle as relayed. A node whose last relayer does not distort is not
//     expanded: its row is one value v and stays so. By induction from the
//     leaves, each of its honest children resolves to v at every process,
//     Byzantine columns included, and at most `distorting` of its n-|path| >=
//     n-f children are relayed by a liar, so v is a strict majority at every
//     level whenever n-f > 2·distorting. Within the budget (n > 3f, at most f
//     liars) that guard always holds; it is evaluated once a broadcast, and
//     beyond it the rule is off. An honest sender's broadcast is the root
//     alone.
//   - Settle. A node whose path holds every distorting peer is not expanded:
//     every relayer below it is honest and tells all processes the same
//     thing, so no Relay call is left to make there and all processes resolve
//     the subtree alike. Relayed honestly, the node's row is one value
//     already and stays; relayed by a liar, each child j would hold row[j] at
//     every process, so the node resolves everywhere to the strict majority
//     of row[j] over the ids off its path. With no distorting peer the root
//     settles and a broadcast fills one row.
//   - Resolve once. If the uniform children of a built inner node (rows of
//     one value: honest relays, settled nodes, nodes resolved this way) hold
//     one value in a strict majority of all its children, or if none of its
//     children is mixed (every column then holds the same children), every
//     process resolves the node to that one vote, in one pass, and the node
//     is uniform in turn. Otherwise each process votes over its own column.
//
// Within the budget every node a broadcast builds is then relayed by a liar
// with only liars on its path, or is such a node's child.
//
// Built nodes sit in level order, a node's children — one per relayer off its
// path, ascending — contiguous from first[c]. Rows hold interned value ids,
// so equality is integer equality. The first broadcast that expands its root
// sizes every array for the full tree; a warmed broadcast allocates nothing
// of its own.
type eig struct {
	n, f   int
	built  int     // nodes the last broadcast built
	vals   []int32 // node-major rows; the root's is the n decisions
	paths  []int   // the built nodes' paths, back to back in node order
	first  []int32 // first[c] is c's first child, 0 for a node not expanded
	mixed  []bool  // mixed[c]: c's row may differ between processes
	onPath []bool  // the ids on the path of the node being visited
	ids    map[string]int32
	strs   []string // strs[id] is the interned value; 0 is DefaultValue, 1 the sender's
}

func newEIG(n, f int) *eig {
	return &eig{n: n, f: f, vals: make([]int32, n), paths: make([]int, 1), onPath: make([]bool, n), ids: make(map[string]int32)}
}

// grow sizes every array for the full tree, keeping the root.
func (e *eig) grow() {
	nodes, ids := treeSize(e.n, e.f)
	e.vals = slices.Grow(e.vals, e.n*int(nodes-1))[:e.n*int(nodes)]
	e.paths = slices.Grow(e.paths, int(ids-1))[:ids]
	e.first, e.mixed = make([]int32, nodes), make([]bool, nodes)
}

// intern returns the id of s, as told by a relayer holding the id honest: ⊥,
// the truth and the sender's value are answered without the map.
func (e *eig) intern(s string, honest int32) int32 {
	switch s {
	case DefaultValue:
		return 0
	case e.strs[honest]:
		return honest
	case e.strs[1]:
		return 1
	}
	id, ok := e.ids[s]
	if !ok {
		id = int32(len(e.strs))
		e.ids[s] = id
		e.strs = append(e.strs, s)
	}
	return id
}

// decision is the id of the value process p decided in the last broadcast,
// an index into strs until the next one.
func (e *eig) decision(p int) int32 { return e.vals[p] }

// relay fills node c's row with what its last relayer, holding the id honest
// for the parent, tells every process.
func (e *eig) relay(c int, path []int, liar Distorter, honest int32) {
	row := e.vals[c*e.n : (c+1)*e.n]
	if liar == nil {
		fill(row, honest)
		return
	}
	for p := range row {
		row[p] = e.intern(liar.Relay(path, p, e.strs[honest]), honest)
	}
}

// broadcast runs one EIG exchange; liars[j] is process j's strategy, nil for
// an honest process, and must not change during the call. Distorters are
// called level by level, parents in level order, relayers then recipients
// ascending.
func (e *eig) broadcast(sender int, value string, liars []Distorter) {
	clear(e.ids)
	e.strs = append(e.strs[:0], DefaultValue, value)
	n, distorting := e.n, 0
	for _, liar := range liars {
		if liar != nil {
			distorting++
		}
	}
	// Settle as relayed: every inner node has n-f or more children, at most
	// distorting of them relayed by a liar, so below an honest relayer the
	// honest children outvote the rest at every level.
	honestSettles := n-e.f > 2*distorting

	// Round 1: the sender transmits its value. Rounds 2..f+1: for a node with
	// path sigma that a liar can still reach and every relayer j off sigma,
	// every process learns j's value for the node and stores it at the child
	// sigma.j. Nodes lo..hi are level k; read and write run along paths.
	e.paths[0] = sender
	e.relay(0, e.paths[:1:1], liars[sender], e.intern(value, 0))
	e.built = 1
	read, write := 0, 1
	for k, lo, hi := 0, 0, 1; k < e.f; k, lo, hi = k+1, hi, e.built {
		for i := lo; i < hi; i, read = i+1, read+k+1 {
			sigma := e.paths[read : read+k+1]
			if honestSettles && liars[sigma[k]] == nil {
				continue // settled as relayed
			}
			met := 0
			for _, id := range sigma {
				e.onPath[id] = true
				if liars[id] != nil {
					met++
				}
			}
			switch {
			case met < distorting:
				if e.first == nil {
					e.grow()
					sigma = e.paths[read : read+k+1] // moved by grow
				}
				e.first[i] = int32(e.built)
				for j := 0; j < n; j++ {
					if e.onPath[j] {
						continue
					}
					c, liar := e.built, liars[j]
					var path []int
					if liar != nil || k+1 < e.f { // an honest leaf's path is never read
						path = e.paths[write : write+k+2 : write+k+2]
						path[copy(path, sigma)] = j
						write += k + 2
					}
					e.first[c], e.mixed[c] = 0, liar != nil
					e.relay(c, path, liar, e.vals[i*n+j])
					e.built++
				}
			case liars[sigma[k]] != nil:
				// Settled below a liar. (A root that settles may have no
				// flag yet, and nothing reads it.)
				row := e.vals[i*n : (i+1)*n]
				id, _ := vote(row, 1, e.onPath, n-k-1)
				fill(row, id)
				if i > 0 {
					e.mixed[i] = false
				}
			}
			for _, id := range sigma {
				e.onPath[id] = false
			}
		}
	}

	// Decision: the expanded nodes resolve bottom-up, in place (a node's
	// received row is dead once its children hold theirs). Children blocks
	// follow one another in node order, so each ends where the last began.
	if e.built == 1 {
		return
	}
	for i, end := e.built-1, e.built; i >= 0; i-- {
		c := int(e.first[i])
		if c == 0 {
			continue
		}
		row, kids, width := e.vals[i*n:(i+1)*n], e.vals[c*n:end*n], end-c
		mixed := e.mixed[c:end]
		id, alike := vote(kids, n, mixed, width)
		// With no mixed child every column is the same, and so is its vote.
		uniform := alike || !slices.Contains(mixed, true)
		if uniform {
			fill(row, id)
		} else {
			for p := range row {
				row[p], _ = vote(kids[p:], n, nil, width)
			}
		}
		e.mixed[i], end = !uniform, c
	}
}

func fill(row []int32, id int32) {
	for p := range row {
		row[p] = id
	}
}

// vote reads every stride-th id of xs, passing over position i where skip[i]
// (a nil skip passes over none), and returns the id that a strict majority of
// the `of` voters hold, else 0 (the DefaultValue id) and false: a Boyer–Moore
// vote, then a recount of the candidate.
func vote(xs []int32, stride int, skip []bool, of int) (int32, bool) {
	var cand int32
	lead := 0
	for i, at := 0, 0; at < len(xs); i, at = i+1, at+stride {
		switch {
		case skip != nil && skip[i]:
		case lead == 0:
			cand, lead = xs[at], 1
		case xs[at] == cand:
			lead++
		default:
			lead--
		}
	}
	votes := 0
	for i, at := 0, 0; at < len(xs); i, at = i+1, at+stride {
		if xs[at] == cand && (skip == nil || !skip[i]) {
			votes++
		}
	}
	if 2*votes > of {
		return cand, true
	}
	return 0, false
}

// treeSize is the full tree's node count and the summed length of its paths.
func treeSize(n, f int) (nodes, ids int64) {
	for k, count := 0, int64(1); k <= f; k++ {
		nodes += count
		ids += count * int64(k+1)
		count *= int64(n - k - 1)
	}
	return nodes, ids
}

// MessageCost returns the number of EIG tree nodes (per-process relay
// values) of the full tree for given (n, f): the count of paths of length
// 1..f+1 with distinct ids starting at the sender. It is the upper bound on
// what a single broadcast materializes and the engine sizes its arrays from
// it; within the liar budget a broadcast builds far less (the root alone for
// an honest sender, 7 of the 37 nodes for a lying sender at n = 7, f = 2 with
// a second liar). It is also the tree size the EIG ablation bench sweeps.
func MessageCost(n, f int) (int64, error) {
	if n <= 0 || f < 0 || n <= 3*f {
		return 0, fmt.Errorf("EIG needs n > 3f, got n=%d f=%d: %w", n, f, ErrArgs)
	}
	nodes, _ := treeSize(n, f)
	return nodes, nil
}

// --- vector encoding ---

// EncodeVector serializes a gradient so it can be carried as an EIG value:
// vecmath's wire layout, the TCP frames' too.
func EncodeVector(v []float64) string {
	return string(vecmath.AppendLE(make([]byte, 0, 8*len(v)), v))
}

// DecodeVector recovers a gradient of the expected dimension. Malformed or
// wrong-length payloads (a Byzantine fabrication, or the protocol's default
// value) decode to the zero vector: every honest agent applies the same
// deterministic rule, so agreement on the string implies agreement on the
// vector.
func DecodeVector(s string, dim int) []float64 {
	out := make([]float64, dim)
	DecodeVectorInto(out, s)
	return out
}

// DecodeVectorInto is DecodeVector writing into dst (whose length is the
// expected dimension) with the same malformed-payload rules, so nothing is
// allocated. The round loop uses it to decode a distorting sender's decided
// value into a reused arena.
func DecodeVectorInto(dst []float64, s string) {
	if len(s) != 8*len(dst) {
		clear(dst)
		return
	}
	vecmath.DecodeLE(dst, s)
	if !vecmath.IsFinite(dst) {
		clear(dst) // poisoned payload: zero it all
	}
}
