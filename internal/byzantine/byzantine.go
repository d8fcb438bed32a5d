// Package byzantine models the faulty agents' behaviors. A Byzantine agent
// may report anything at all (Lamport et al.); this package collects the
// concrete adversaries the paper simulates — gradient-reverse and random
// Gaussian (Section 5), label-flip (Appendix K, realized at the data level
// in package mlsim) — plus standard colluding attacks from the literature
// the paper cites, used by the ablation benches.
//
// Behaviors are deterministic given their seed, matching the paper's
// deterministic-algorithm framework and keeping every experiment
// reproducible. Every behavior here is stateless and implements IntoBehavior:
// its arithmetic lives in ApplyInto alone, which allocates nothing, and Apply
// and ApplyOmniscient are that call on a fresh slice.
package byzantine

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"byzopt/internal/simtime"
	"byzopt/internal/vecmath"
)

// ErrBadConfig is returned (wrapped) for invalid behavior parameters.
var ErrBadConfig = errors.New("byzantine: invalid configuration")

// Behavior computes the gradient a Byzantine agent reports to the server in
// place of its true gradient.
type Behavior interface {
	// Name returns a short stable identifier.
	Name() string
	// Apply returns the faulty gradient for the given round. trueGrad is the
	// gradient a correct agent would have sent; implementations must not
	// mutate it.
	Apply(round, agentID int, trueGrad []float64) ([]float64, error)
}

// Omniscient is an optional extension for colluding adversaries that observe
// the honest agents' gradients before choosing their own (the strongest
// adversary model used in the gradient-filter literature).
type Omniscient interface {
	Behavior
	// ApplyOmniscient returns the faulty gradient given all honest gradients
	// of the round. Implementations must not mutate honestGrads.
	ApplyOmniscient(round, agentID int, trueGrad []float64, honestGrads [][]float64) ([]float64, error)
}

// IntoBehavior is the optional in-place face of a Behavior, and the one the
// DGD engines drive: the report is written into a buffer the caller owns.
type IntoBehavior interface {
	Behavior
	// ApplyInto writes the faulty gradient for the round into dst, bitwise
	// what Apply (honest nil or empty: the caller has no visibility) or
	// ApplyOmniscient (honest set) returns. dst has trueGrad's length and may
	// be trueGrad itself, in which case the report replaces the true gradient
	// in place; otherwise trueGrad is left alone. Implementations must not
	// mutate or retain honest, whose rows never alias dst. The ones in this
	// package allocate nothing.
	ApplyInto(dst []float64, round, agentID int, trueGrad []float64, honest [][]float64) error
}

// SharedReport marks an IntoBehavior whose colluders all send one vector: with
// a non-empty honest set in view, ApplyInto writes a report that depends on
// the behavior's own value, the round and the honest set alone, never on
// agentID or trueGrad. An engine that holds the honest set may then evaluate
// one of several agents whose behaviors are equal (==) and copy its report to
// the others (dgd.Collector does). Without the honest set the promise is void.
type SharedReport interface {
	IntoBehavior
	// SharedReport is the mark; it is never called.
	SharedReport()
}

// fresh is every behavior's allocating face: ApplyInto on a new slice.
func fresh[B IntoBehavior](b B, round, agentID int, trueGrad []float64, honest [][]float64) ([]float64, error) {
	dst := make([]float64, len(trueGrad))
	if err := b.ApplyInto(dst, round, agentID, trueGrad, honest); err != nil {
		return nil, err
	}
	return dst, nil
}

// copyInto is the dimension-checked copy reports derived from the true
// gradient start from; dst may be src itself.
func copyInto(dst, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("report dim %d vs gradient dim %d: %w", len(dst), len(src), ErrBadConfig)
	}
	copy(dst, src)
	return nil
}

// scaleInto writes alpha * src into dst; dst may be src itself.
func scaleInto(dst []float64, alpha float64, src []float64) error {
	if err := copyInto(dst, src); err != nil {
		return err
	}
	vecmath.ScaleInPlace(alpha, dst)
	return nil
}

// --- gradient reverse ---

// GradientReverse sends the negation of the true gradient: g -> -g.
// This is the "gradient-reverse" fault of Section 5.
type GradientReverse struct{}

var _ IntoBehavior = GradientReverse{}

// Name implements Behavior.
func (GradientReverse) Name() string { return "gradient-reverse" }

// Apply implements Behavior.
func (r GradientReverse) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return fresh(r, round, agentID, trueGrad, nil)
}

// ApplyInto implements IntoBehavior.
func (GradientReverse) ApplyInto(dst []float64, round, agentID int, trueGrad []float64, _ [][]float64) error {
	return scaleInto(dst, -1, trueGrad)
}

// --- scaled reverse ---

// ScaledReverse sends -Factor * g: a tunable variant of gradient reversal
// ("a-little-is-enough"-style small factors evade norm-based filters, large
// factors maximize damage against averaging).
type ScaledReverse struct {
	Factor float64
}

var _ IntoBehavior = ScaledReverse{}

// Name implements Behavior.
func (s ScaledReverse) Name() string { return fmt.Sprintf("scaled-reverse-%g", s.Factor) }

// Apply implements Behavior.
func (s ScaledReverse) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return fresh(s, round, agentID, trueGrad, nil)
}

// ApplyInto implements IntoBehavior.
func (s ScaledReverse) ApplyInto(dst []float64, round, agentID int, trueGrad []float64, _ [][]float64) error {
	if s.Factor <= 0 {
		return fmt.Errorf("scaled reverse factor %v must be positive: %w", s.Factor, ErrBadConfig)
	}
	return scaleInto(dst, -s.Factor, trueGrad)
}

// --- random Gaussian ---

// RandomGaussian sends an i.i.d. Gaussian vector with mean zero and isotropic
// standard deviation Sigma, the "random" fault of Section 5 (σ = 200 there).
// Every coordinate is a pure function of (seed, round, agentID, coordinate):
// a counter-mode draw from simtime's SplitMix64 hash with no generator state,
// so executions replay exactly regardless of evaluation order and the report
// at dimension d is a prefix of the report at any larger dimension.
type RandomGaussian struct {
	sigma float64
	seed  int64
}

var _ IntoBehavior = (*RandomGaussian)(nil)

// gaussianStream is the reserved stream index keying the Gaussian draws,
// continuing the negative range after simtime's straggler stream (-1) and
// chaos's fault kinds (-2 to -8): a scenario hands one seed to all three, and
// real rounds are nonnegative, so no two families share a draw.
const gaussianStream = -9

// NewRandomGaussian builds the behavior; sigma must be positive.
func NewRandomGaussian(sigma float64, seed int64) (*RandomGaussian, error) {
	if sigma <= 0 {
		return nil, fmt.Errorf("gaussian sigma %v must be positive: %w", sigma, ErrBadConfig)
	}
	return &RandomGaussian{sigma: sigma, seed: seed}, nil
}

// Name implements Behavior.
func (g *RandomGaussian) Name() string { return fmt.Sprintf("random-%g", g.sigma) }

// Apply implements Behavior.
func (g *RandomGaussian) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return fresh(g, round, agentID, trueGrad, nil)
}

// ApplyInto implements IntoBehavior. Coordinates 2j and 2j+1 are the two
// Box–Muller outputs of the uniforms drawn at those two coordinates; an odd
// dimension draws the last pair's second uniform all the same.
func (g *RandomGaussian) ApplyInto(dst []float64, round, agentID int, _ []float64, _ [][]float64) error {
	// The agent's sub-seed on the reserved stream; draws are keyed (round, i).
	key := int64(simtime.Mix(g.seed, gaussianStream, agentID))
	for i := 0; i < len(dst); i += 2 {
		// U01 lies in [0, 1), so 1-U01 lies in (0, 1] and the log is finite.
		r := g.sigma * math.Sqrt(-2*math.Log(1-simtime.U01(key, round, i)))
		sin, cos := math.Sincos(2 * math.Pi * simtime.U01(key, round, i+1))
		dst[i] = r * cos
		if i+1 < len(dst) {
			dst[i+1] = r * sin
		}
	}
	return nil
}

// --- constant ---

// Constant always sends a fixed vector, whatever the round.
type Constant struct {
	vec []float64
}

var _ IntoBehavior = (*Constant)(nil)

// NewConstant builds the behavior from a non-empty vector.
func NewConstant(v []float64) (*Constant, error) {
	if len(v) == 0 {
		return nil, fmt.Errorf("constant behavior needs a non-empty vector: %w", ErrBadConfig)
	}
	return &Constant{vec: vecmath.Clone(v)}, nil
}

// Name implements Behavior.
func (c *Constant) Name() string { return "constant" }

// Apply implements Behavior.
func (c *Constant) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return fresh(c, round, agentID, trueGrad, nil)
}

// ApplyInto implements IntoBehavior. It errors if the round's gradient
// dimension does not match the configured vector.
func (c *Constant) ApplyInto(dst []float64, round, agentID int, trueGrad []float64, _ [][]float64) error {
	if len(trueGrad) != len(c.vec) {
		return fmt.Errorf("constant dim %d vs gradient dim %d: %w", len(c.vec), len(trueGrad), ErrBadConfig)
	}
	return copyInto(dst, c.vec)
}

// --- zero ---

// Zero sends the all-zeros vector: a "lazy" fault that stalls averaging-based
// methods without tripping norm filters.
type Zero struct{}

var _ IntoBehavior = Zero{}

// Name implements Behavior.
func (Zero) Name() string { return "zero" }

// Apply implements Behavior.
func (z Zero) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return fresh(z, round, agentID, trueGrad, nil)
}

// ApplyInto implements IntoBehavior.
func (Zero) ApplyInto(dst []float64, round, agentID int, _ []float64, _ [][]float64) error {
	clear(dst)
	return nil
}

// --- inner-product manipulation (colluding) ---

// InnerProductManipulation is the colluding attack of Xie et al.: every
// faulty agent sends -Epsilon times the mean of the honest gradients, making
// the aggregate's inner product with the true descent direction negative
// while keeping norms unsuspicious.
type InnerProductManipulation struct {
	Epsilon float64
}

var (
	_ Omniscient   = InnerProductManipulation{}
	_ SharedReport = InnerProductManipulation{}
)

// Name implements Behavior.
func (a InnerProductManipulation) Name() string { return fmt.Sprintf("ipm-%g", a.Epsilon) }

// Apply implements Behavior; without visibility of honest gradients it
// degrades to scaled reversal of the agent's own gradient.
func (a InnerProductManipulation) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return a.ApplyOmniscient(round, agentID, trueGrad, nil)
}

// ApplyOmniscient implements Omniscient.
func (a InnerProductManipulation) ApplyOmniscient(round, agentID int, trueGrad []float64, honestGrads [][]float64) ([]float64, error) {
	return fresh(a, round, agentID, trueGrad, honestGrads)
}

// ApplyInto implements IntoBehavior.
func (a InnerProductManipulation) ApplyInto(dst []float64, round, agentID int, trueGrad []float64, honest [][]float64) error {
	if a.Epsilon <= 0 {
		return fmt.Errorf("ipm epsilon %v must be positive: %w", a.Epsilon, ErrBadConfig)
	}
	if len(honest) == 0 {
		return scaleInto(dst, -a.Epsilon, trueGrad)
	}
	if err := vecmath.MeanInto(dst, honest); err != nil {
		return err
	}
	vecmath.ScaleInPlace(-a.Epsilon, dst)
	return nil
}

// SharedReport implements SharedReport: minus Epsilon times the honest mean.
func (InnerProductManipulation) SharedReport() {}

// --- a little is enough (colluding) ---

// ALittleIsEnough is the colluding attack of Baruch et al.: faulty agents
// send mean(honest) + Z * std(honest) per coordinate, a perturbation large
// enough to bias aggregation yet small enough to blend into the honest
// spread.
type ALittleIsEnough struct {
	Z float64
}

var (
	_ Omniscient   = ALittleIsEnough{}
	_ SharedReport = ALittleIsEnough{}
)

// Name implements Behavior.
func (a ALittleIsEnough) Name() string { return fmt.Sprintf("alie-%g", a.Z) }

// Apply implements Behavior; without visibility it perturbs the agent's own
// gradient by Z per coordinate, a weak fallback.
func (a ALittleIsEnough) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return a.ApplyOmniscient(round, agentID, trueGrad, nil)
}

// ApplyOmniscient implements Omniscient.
func (a ALittleIsEnough) ApplyOmniscient(round, agentID int, trueGrad []float64, honestGrads [][]float64) ([]float64, error) {
	return fresh(a, round, agentID, trueGrad, honestGrads)
}

// ApplyInto implements IntoBehavior.
func (a ALittleIsEnough) ApplyInto(dst []float64, round, agentID int, trueGrad []float64, honest [][]float64) error {
	if len(honest) == 0 {
		if err := copyInto(dst, trueGrad); err != nil {
			return err
		}
		for i := range dst {
			dst[i] += a.Z
		}
		return nil
	}
	if err := vecmath.MeanInto(dst, honest); err != nil {
		return err
	}
	for k, m := range dst {
		var s float64
		for _, g := range honest {
			dev := g[k] - m
			s += dev * dev
		}
		dst[k] = m + a.Z*math.Sqrt(s/float64(len(honest)))
	}
	return nil
}

// SharedReport implements SharedReport: the honest mean plus Z honest
// standard deviations, coordinate by coordinate.
func (ALittleIsEnough) SharedReport() {}

// --- broadcast equivocation (peer-to-peer substrate) ---

// Equivocate is the adversary of the peer-to-peer architecture: at the
// gradient level it reverses its true gradient (exactly GradientReverse),
// and it additionally implements the p2p substrate's broadcast-distorter
// contract — Relay pseudo-randomly garbles the values it forwards while
// relaying other peers' broadcasts, the equivocation attack Byzantine
// broadcast exists to defeat. Server-based substrates have no relay step, so
// there the behavior degrades to plain gradient reversal; only the p2p
// backend can express the equivocation half (it detects Relay through the
// dgd.Faulty wrapper's Behavior accessor).
type Equivocate struct {
	GradientReverse // Apply and ApplyInto: the strongest lie about its own cost
	seed            int64
}

var _ IntoBehavior = (*Equivocate)(nil)

// NewEquivocate builds the behavior; the seed drives the relay garbling.
func NewEquivocate(seed int64) *Equivocate { return &Equivocate{seed: seed} }

// Name implements Behavior.
func (*Equivocate) Name() string { return "equivocate" }

// Relay implements the p2p package's Distorter contract structurally (this
// package sits below p2p, so the interface is satisfied by shape, not by
// name): given the EIG tree path and the recipient, it deterministically
// chooses between the truth, the protocol default, garbage, and per-recipient
// splits — the same mixed strategy the p2p property tests use to search for
// agreement violations.
func (e *Equivocate) Relay(path []int, recipient int, honest string) string {
	h := e.seed
	for _, p := range path {
		h = h*31 + int64(p) + 7
	}
	h = h*31 + int64(recipient)
	// h & 3, not h % 4: sweep-derived seeds are negative about half the
	// time, and a negative remainder would collapse the strategy to two of
	// its four cases.
	switch h & 3 {
	case 0:
		return honest // sometimes telling the truth is the best lie
	case 1:
		return "" // the protocol's default value ⊥
	case 2:
		return garbageLies[h&0xff]
	default:
		return splitLies[recipient%3]
	}
}

// Relay's fabrications, built once so a relay allocates nothing: h&0xff picks
// the garbage and the recipient, a process index, the split.
var garbageLies, splitLies = lieTable("garbage-", 256), lieTable("split-", 3)

func lieTable(prefix string, n int) []string {
	lies := make([]string, n)
	for i := range lies {
		lies[i] = prefix + strconv.Itoa(i)
	}
	return lies
}

// New constructs a behavior from a registry name. Recognized names:
// gradient-reverse, random (sigma 200, the paper's Section-5 value), zero,
// ipm, alie, equivocate (gradient reversal plus broadcast-layer
// equivocation, realized only by the p2p substrate).
func New(name string, seed int64) (Behavior, error) {
	switch name {
	case "gradient-reverse":
		return GradientReverse{}, nil
	case "random":
		return NewRandomGaussian(200, seed)
	case "zero":
		return Zero{}, nil
	case "ipm":
		return InnerProductManipulation{Epsilon: 0.5}, nil
	case "alie":
		return ALittleIsEnough{Z: 1.5}, nil
	case "equivocate":
		return NewEquivocate(seed), nil
	default:
		return nil, fmt.Errorf("byzantine: unknown behavior %q: %w", name, ErrBadConfig)
	}
}

// Names lists the registry names accepted by New, in stable order.
func Names() []string {
	return []string{"gradient-reverse", "random", "zero", "ipm", "alie", "equivocate"}
}
