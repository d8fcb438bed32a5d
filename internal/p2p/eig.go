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
	"sort"
	"strconv"
	"strings"
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
	// would have relayed.
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
	switch h % 4 {
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

// pathKey encodes a tree path as a map key.
func pathKey(path []int) string {
	var b strings.Builder
	for i, p := range path {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
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
	for id := range byz {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("byzantine id %d out of [0, %d): %w", id, n, ErrArgs)
		}
	}

	// views[p][pathKey] is process p's received value for the tree node.
	views := make([]map[string]string, n)
	for p := range views {
		views[p] = make(map[string]string)
	}

	// Round 1: the sender transmits its value; a Byzantine sender can
	// equivocate per recipient.
	rootPath := []int{sender}
	rootKey := pathKey(rootPath)
	for p := 0; p < n; p++ {
		v := value
		if d, bad := byz[sender]; bad {
			v = d.Relay(rootPath, p, value)
		}
		views[p][rootKey] = v
	}

	// Rounds 2..f+1: relay. Nodes at level k are paths of k distinct ids
	// starting at the sender. For node sigma and relayer j not in sigma,
	// process p learns views[j][sigma] (distorted if j is Byzantine) and
	// stores it at sigma.j.
	levelPaths := [][]int{rootPath}
	for level := 1; level <= f; level++ {
		var nextPaths [][]int
		for _, sigma := range levelPaths {
			sigmaKey := pathKey(sigma)
			for j := 0; j < n; j++ {
				if contains(sigma, j) {
					continue
				}
				child := append(append([]int(nil), sigma...), j)
				childKey := pathKey(child)
				honestView := views[j][sigmaKey]
				for p := 0; p < n; p++ {
					v := honestView
					if d, bad := byz[j]; bad {
						v = d.Relay(child, p, honestView)
					}
					views[p][childKey] = v
				}
				nextPaths = append(nextPaths, child)
			}
		}
		levelPaths = nextPaths
	}

	// Decision: bottom-up strict-majority resolution per process.
	decisions := make([]string, n)
	for p := 0; p < n; p++ {
		decisions[p] = resolve(views[p], rootPath, n, f)
	}
	return decisions, nil
}

// resolve computes newval(sigma) for one process's view.
func resolve(view map[string]string, sigma []int, n, f int) string {
	if len(sigma) == f+1 { // leaf
		return view[pathKey(sigma)]
	}
	counts := make(map[string]int)
	total := 0
	for j := 0; j < n; j++ {
		if contains(sigma, j) {
			continue
		}
		child := append(append([]int(nil), sigma...), j)
		counts[resolve(view, child, n, f)]++
		total++
	}
	// Strict majority among children, else the default value. Iterate keys
	// in sorted order so ties (impossible for a strict majority, but cheap
	// insurance) resolve deterministically.
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

func contains(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
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
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return string(buf)
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
