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
// and the EIG exchange. Each honest peer's update, from the agreed set to its
// next estimate, is the dgd.Round kernel the other substrates run too, one
// instance per peer.
//
// Backend exposes the substrate through the uniform dgd.Backend interface:
// any dgd.Config — and therefore any sweep grid — runs over Byzantine
// broadcast unchanged, with observers and traces threaded through the
// decentralized loop, non-equivocating grids byte-identical to the
// in-process engine, and broadcast-layer equivocation (Distorter) as the
// one adversary only this substrate can express.
package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// ErrArgs is returned (wrapped) for invalid parameters.
var ErrArgs = errors.New("p2p: invalid arguments")

// DefaultValue is the fallback an EIG node decides when no strict majority
// exists among its children (the protocol's ⊥).
const DefaultValue = ""

// Distorter is the lying strategy of a Byzantine process during a
// broadcast: it chooses what to claim about tree node path when talking to
// a given recipient. An honest process always relays its true view.
type Distorter interface {
	// Relay returns the value the Byzantine process reports to recipient
	// for the given EIG tree path; honest is the value a correct process
	// would have relayed. path is the engine's own storage: read-only, and
	// valid only during the call (copy it to keep it).
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
	return "split-" + strconv.Itoa(recipient%2)
}

// SeededLiar pseudo-randomly garbles its relays; used by property tests to
// search for agreement violations.
type SeededLiar struct {
	Seed int64
}

// Relay implements Distorter.
func (s SeededLiar) Relay(path []int, recipient int, honest string) string {
	h := s.Seed
	for _, p := range path {
		h = h*31 + int64(p) + 7
	}
	h = h*31 + int64(recipient)
	// h & 3, not h % 4: Go's remainder is negative for negative h, which
	// would collapse the strategy to two of its four cases.
	switch h & 3 {
	case 0:
		return honest // sometimes telling the truth is the best lie
	case 1:
		return DefaultValue
	case 2:
		return "garbage-" + strconv.FormatInt(h&0xff, 10)
	default:
		return "split-" + strconv.Itoa(recipient%3)
	}
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
// guarantee (a Byzantine process's "decision" is meaningless anyway).
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
// rounds. The tree — nodes are the paths of 1..f+1 distinct ids starting at
// the sender — is laid out in level order: level k holds (n-1)···(n-k)
// nodes from base[k], and the children of a level-k node, one per relayer
// off its path in ascending order, are the next contiguous block of n-k-1
// nodes. The views hold interned value ids instead of strings, so equality
// is integer equality and a warmed broadcast allocates nothing of its own.
type eig struct {
	n, f  int
	base  []int   // base[k] is the first node of level k; base[f+1] the node count
	paths []int   // every node's path, back to back in node order
	vals  []int32 // vals[p*nodes+node] is process p's value id for the node
	ids   map[string]int32
	strs  []string // strs[id] is the interned value; id 0 is DefaultValue
}

func newEIG(n, f int) *eig {
	e := &eig{n: n, f: f, base: make([]int, f+2), ids: make(map[string]int32)}
	for k, count := 0, 1; k <= f; k++ {
		e.base[k+1] = e.base[k] + count
		count *= n - k - 1
	}
	e.vals = make([]int32, n*e.base[f+1])
	return e
}

func (e *eig) intern(s string) int32 {
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
func (e *eig) decision(p int) int32 { return e.vals[p*e.base[e.f+1]] }

// broadcast runs one EIG exchange; liars[j] is process j's strategy, nil for
// an honest process. Distorters are called level by level, parents in level
// order, relayers then recipients ascending.
func (e *eig) broadcast(sender int, value string, liars []Distorter) {
	clear(e.ids)
	e.strs = e.strs[:0]
	e.intern(DefaultValue)
	n, nodes := e.n, e.base[e.f+1]

	// relay stores what relayer j, holding value id honest, tells every
	// process about node c, whose path is the last pathLen ids written.
	relay := func(c, j, pathLen int, honest int32) {
		path, liar := slices.Clip(e.paths[len(e.paths)-pathLen:]), liars[j]
		for p := 0; p < n; p++ {
			id := honest
			if liar != nil {
				id = e.intern(liar.Relay(path, p, e.strs[honest]))
			}
			e.vals[p*nodes+c] = id
		}
	}
	// Round 1: the sender transmits its value. Rounds 2..f+1: for node i and
	// every relayer j off its path sigma, every process learns j's value for
	// i and stores it at the child sigma.j.
	e.paths = append(e.paths[:0], sender)
	relay(0, sender, 1, e.intern(value))
	c, parent := 1, 0
	for k := 0; k < e.f; k++ {
		for i := e.base[k]; i < e.base[k+1]; i++ {
			sigma := e.paths[parent : parent+k+1]
			parent += k + 1
			for j := 0; j < n; j++ {
				if !slices.Contains(sigma, j) {
					e.paths = append(append(e.paths, sigma...), j)
					relay(c, j, k+2, e.vals[j*nodes+i])
					c++
				}
			}
		}
	}

	// Decision: each process resolves its own view bottom-up, in place (a
	// node's received value is dead once its children hold theirs).
	for p := 0; p < n; p++ {
		view := e.vals[p*nodes : (p+1)*nodes]
		for k := e.f - 1; k >= 0; k-- {
			width := n - k - 1
			for i, c := e.base[k], e.base[k+1]; i < e.base[k+1]; i, c = i+1, c+width {
				view[i] = majority(view[c : c+width])
			}
		}
	}
}

// majority returns the id held by a strict majority of xs, else 0 (the
// DefaultValue id): a Boyer–Moore vote, then a recount of the candidate.
func majority(xs []int32) int32 {
	var cand int32
	count := 0
	for _, x := range xs {
		if count == 0 {
			cand = x
		}
		if x == cand {
			count++
		} else {
			count--
		}
	}
	count = 0
	for _, x := range xs {
		if x == cand {
			count++
		}
	}
	if 2*count > len(xs) {
		return cand
	}
	return 0
}

// MessageCost returns the number of EIG tree nodes (per-process relay
// values) a single broadcast materializes for given (n, f): the count of
// paths of length 1..f+1 with distinct ids starting at the sender. It is
// the cost driver the EIG ablation bench sweeps.
func MessageCost(n, f int) (int64, error) {
	if n <= 0 || f < 0 || n <= 3*f {
		return 0, fmt.Errorf("EIG needs n > 3f, got n=%d f=%d: %w", n, f, ErrArgs)
	}
	var total, levelCount int64 = 0, 1
	for level := 1; level <= f+1; level++ {
		total += levelCount
		levelCount *= int64(n - level)
	}
	return total, nil
}

// --- vector encoding ---

// EncodeVector serializes a gradient so it can be carried as an EIG value.
func EncodeVector(v []float64) string {
	return string(appendVector(make([]byte, 0, 8*len(v)), v))
}

// appendVector appends v's encoding to dst.
func appendVector(dst []byte, v []float64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
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
// expected dimension) with the same malformed-payload rules, reading the
// string bytes directly so nothing is allocated. The honest round loop uses
// it to decode each round's agreed gradients into a reused arena.
func DecodeVectorInto(dst []float64, s string) {
	for i := range dst {
		dst[i] = 0
	}
	if len(s) != 8*len(dst) {
		return
	}
	for i := range dst {
		var u uint64
		for b := 0; b < 8; b++ {
			u |= uint64(s[8*i+b]) << (8 * b)
		}
		x := math.Float64frombits(u)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// Poisoned payload: zero it all.
			for j := range dst {
				dst[j] = 0
			}
			return
		}
		dst[i] = x
	}
}
