// Package byzantine models the faulty agents' behaviors. A Byzantine agent
// may report anything at all (Lamport et al.); this package collects the
// concrete adversaries the paper simulates — gradient-reverse and random
// Gaussian (Section 5), label-flip (Appendix K, realized at the data level
// in package mlsim) — plus standard colluding attacks from the literature
// the paper cites, used by the ablation benches.
//
// Behaviors are deterministic given their seed, matching the paper's
// deterministic-algorithm framework and keeping every experiment
// reproducible.
package byzantine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

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

// --- gradient reverse ---

// GradientReverse sends the negation of the true gradient: g -> -g.
// This is the "gradient-reverse" fault of Section 5.
type GradientReverse struct{}

var _ Behavior = GradientReverse{}

// Name implements Behavior.
func (GradientReverse) Name() string { return "gradient-reverse" }

// Apply implements Behavior.
func (GradientReverse) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return vecmath.Neg(trueGrad), nil
}

// --- scaled reverse ---

// ScaledReverse sends -Factor * g: a tunable variant of gradient reversal
// ("a-little-is-enough"-style small factors evade norm-based filters, large
// factors maximize damage against averaging).
type ScaledReverse struct {
	Factor float64
}

var _ Behavior = ScaledReverse{}

// Name implements Behavior.
func (s ScaledReverse) Name() string { return fmt.Sprintf("scaled-reverse-%g", s.Factor) }

// Apply implements Behavior.
func (s ScaledReverse) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	if s.Factor <= 0 {
		return nil, fmt.Errorf("scaled reverse factor %v must be positive: %w", s.Factor, ErrBadConfig)
	}
	return vecmath.Scale(-s.Factor, trueGrad), nil
}

// --- random Gaussian ---

// RandomGaussian sends an i.i.d. Gaussian vector with mean zero and isotropic
// standard deviation Sigma, the "random" fault of Section 5 (σ = 200 there).
// Draws are deterministic given (seed, round, agentID) so that executions
// replay exactly regardless of evaluation order.
type RandomGaussian struct {
	sigma float64
	seed  int64
}

var _ Behavior = (*RandomGaussian)(nil)

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
	// Derive a per-(round, agent) stream so replays are order-independent.
	const (
		mixRound int64 = 0x1E3779B97F4A7C15
		mixAgent int64 = 0x3F58476D1CE4E5B9
	)
	h := g.seed ^ (int64(round)+1)*mixRound ^ (int64(agentID)+1)*mixAgent
	r := rand.New(rand.NewSource(h))
	out := make([]float64, len(trueGrad))
	for i := range out {
		out[i] = r.NormFloat64() * g.sigma
	}
	return out, nil
}

// --- constant ---

// Constant always sends a fixed vector, whatever the round.
type Constant struct {
	vec []float64
}

var _ Behavior = (*Constant)(nil)

// NewConstant builds the behavior from a non-empty vector.
func NewConstant(v []float64) (*Constant, error) {
	if len(v) == 0 {
		return nil, fmt.Errorf("constant behavior needs a non-empty vector: %w", ErrBadConfig)
	}
	return &Constant{vec: vecmath.Clone(v)}, nil
}

// Name implements Behavior.
func (c *Constant) Name() string { return "constant" }

// Apply implements Behavior. It errors if the round's gradient dimension
// does not match the configured vector.
func (c *Constant) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	if len(trueGrad) != len(c.vec) {
		return nil, fmt.Errorf("constant dim %d vs gradient dim %d: %w", len(c.vec), len(trueGrad), ErrBadConfig)
	}
	return vecmath.Clone(c.vec), nil
}

// --- zero ---

// Zero sends the all-zeros vector: a "lazy" fault that stalls averaging-based
// methods without tripping norm filters.
type Zero struct{}

var _ Behavior = Zero{}

// Name implements Behavior.
func (Zero) Name() string { return "zero" }

// Apply implements Behavior.
func (Zero) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return vecmath.Zeros(len(trueGrad)), nil
}

// --- coordinate spike ---

// CoordinateSpike plants a huge value in a single coordinate and reports the
// true gradient elsewhere, stressing coordinate-wise filters.
type CoordinateSpike struct {
	Coordinate int
	Magnitude  float64
}

var _ Behavior = CoordinateSpike{}

// Name implements Behavior.
func (c CoordinateSpike) Name() string { return fmt.Sprintf("spike-%d", c.Coordinate) }

// Apply implements Behavior.
func (c CoordinateSpike) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	if c.Coordinate < 0 || c.Coordinate >= len(trueGrad) {
		return nil, fmt.Errorf("spike coordinate %d out of range [0,%d): %w", c.Coordinate, len(trueGrad), ErrBadConfig)
	}
	out := vecmath.Clone(trueGrad)
	out[c.Coordinate] = c.Magnitude
	return out, nil
}

// --- inner-product manipulation (colluding) ---

// InnerProductManipulation is the colluding attack of Xie et al.: every
// faulty agent sends -Epsilon times the mean of the honest gradients, making
// the aggregate's inner product with the true descent direction negative
// while keeping norms unsuspicious.
type InnerProductManipulation struct {
	Epsilon float64
}

var _ Omniscient = InnerProductManipulation{}

// Name implements Behavior.
func (a InnerProductManipulation) Name() string { return fmt.Sprintf("ipm-%g", a.Epsilon) }

// Apply implements Behavior; without visibility of honest gradients it
// degrades to scaled reversal of the agent's own gradient.
func (a InnerProductManipulation) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	if a.Epsilon <= 0 {
		return nil, fmt.Errorf("ipm epsilon %v must be positive: %w", a.Epsilon, ErrBadConfig)
	}
	return vecmath.Scale(-a.Epsilon, trueGrad), nil
}

// ApplyOmniscient implements Omniscient.
func (a InnerProductManipulation) ApplyOmniscient(round, agentID int, trueGrad []float64, honestGrads [][]float64) ([]float64, error) {
	if a.Epsilon <= 0 {
		return nil, fmt.Errorf("ipm epsilon %v must be positive: %w", a.Epsilon, ErrBadConfig)
	}
	if len(honestGrads) == 0 {
		return a.Apply(round, agentID, trueGrad)
	}
	m, err := vecmath.Mean(honestGrads)
	if err != nil {
		return nil, err
	}
	vecmath.ScaleInPlace(-a.Epsilon, m)
	return m, nil
}

// --- a little is enough (colluding) ---

// ALittleIsEnough is the colluding attack of Baruch et al.: faulty agents
// send mean(honest) + Z * std(honest) per coordinate, a perturbation large
// enough to bias aggregation yet small enough to blend into the honest
// spread.
type ALittleIsEnough struct {
	Z float64
}

var _ Omniscient = ALittleIsEnough{}

// Name implements Behavior.
func (a ALittleIsEnough) Name() string { return fmt.Sprintf("alie-%g", a.Z) }

// Apply implements Behavior; without visibility it perturbs the agent's own
// gradient by Z per coordinate, a weak fallback.
func (a ALittleIsEnough) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	out := vecmath.Clone(trueGrad)
	for i := range out {
		out[i] += a.Z
	}
	return out, nil
}

// ApplyOmniscient implements Omniscient.
func (a ALittleIsEnough) ApplyOmniscient(round, agentID int, trueGrad []float64, honestGrads [][]float64) ([]float64, error) {
	if len(honestGrads) == 0 {
		return a.Apply(round, agentID, trueGrad)
	}
	m, err := vecmath.Mean(honestGrads)
	if err != nil {
		return nil, err
	}
	d := len(m)
	std := make([]float64, d)
	for k := 0; k < d; k++ {
		var s float64
		for _, g := range honestGrads {
			dev := g[k] - m[k]
			s += dev * dev
		}
		std[k] = math.Sqrt(s / float64(len(honestGrads)))
	}
	out := make([]float64, d)
	for k := 0; k < d; k++ {
		out[k] = m[k] + a.Z*std[k]
	}
	return out, nil
}

// --- delayed (mixed honest/faulty phases) ---

// Delayed behaves honestly until round Activate, then delegates to Inner.
// It models sleeper faults that pass an initial vetting period.
type Delayed struct {
	Activate int
	Inner    Behavior
}

var _ Behavior = (*Delayed)(nil)

// Name implements Behavior.
func (d *Delayed) Name() string { return fmt.Sprintf("delayed-%d-%s", d.Activate, d.Inner.Name()) }

// Apply implements Behavior.
func (d *Delayed) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	if d.Inner == nil {
		return nil, fmt.Errorf("delayed behavior without inner behavior: %w", ErrBadConfig)
	}
	if round < d.Activate {
		return vecmath.Clone(trueGrad), nil
	}
	return d.Inner.Apply(round, agentID, trueGrad)
}

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
	seed int64
}

var _ Behavior = (*Equivocate)(nil)

// NewEquivocate builds the behavior; the seed drives the relay garbling.
func NewEquivocate(seed int64) *Equivocate { return &Equivocate{seed: seed} }

// Name implements Behavior.
func (*Equivocate) Name() string { return "equivocate" }

// Apply implements Behavior: gradient reversal, the strongest lie the
// behavior can tell about its own cost.
func (*Equivocate) Apply(round, agentID int, trueGrad []float64) ([]float64, error) {
	return vecmath.Neg(trueGrad), nil
}

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
