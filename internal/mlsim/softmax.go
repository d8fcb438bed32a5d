package mlsim

import (
	"fmt"
	"math"
	"math/rand"

	"byzopt/internal/costfunc"
	"byzopt/internal/vecmath"
)

// Model is the training-model contract the D-SGD machinery consumes; both
// Softmax (convex, matching the paper's assumptions) and MLP (non-convex,
// closer in spirit to the paper's LeNet) satisfy it.
type Model interface {
	// ParamDim returns the flattened parameter dimension.
	ParamDim() int
	// Loss returns the mean loss of the parameters over the dataset.
	Loss(params []float64, ds *Dataset) (float64, error)
	// Grad returns the minibatch gradient over the given point indices.
	Grad(params []float64, ds *Dataset, idx []int) ([]float64, error)
	// Accuracy returns the fraction of points classified correctly.
	Accuracy(params []float64, ds *Dataset) (float64, error)
}

// Softmax is a multinomial logistic-regression model: for a feature vector
// x, class scores are z_c = w_c . [x; 1] and the prediction is
// argmax_c softmax(z)_c. Parameters for all classes are flattened into one
// vector of length Classes * (Dim + 1), which is what the DGD machinery
// optimizes.
//
// The model is convex in its parameters, so it satisfies the assumptions
// the paper can only posit for LeNet, while exercising the identical
// D-SGD + gradient-filter code path.
type Softmax struct {
	// Classes is the number of classes.
	Classes int
	// Dim is the feature dimension (bias handled internally).
	Dim int
	// Reg is the L2 regularization coefficient (may be zero).
	Reg float64
}

// ParamDim returns the flattened parameter dimension Classes * (Dim + 1).
func (m Softmax) ParamDim() int { return m.Classes * (m.Dim + 1) }

func (m Softmax) check() error {
	if m.Classes < 2 || m.Dim < 1 || m.Reg < 0 {
		return fmt.Errorf("softmax classes=%d dim=%d reg=%v: %w", m.Classes, m.Dim, m.Reg, ErrArgs)
	}
	return nil
}

// logits computes the class scores for one point; buf must have length
// Classes and is returned for convenience.
func (m Softmax) logits(params, x []float64, buf []float64) []float64 {
	stride := m.Dim + 1
	for c := 0; c < m.Classes; c++ {
		w := params[c*stride : (c+1)*stride]
		s := w[m.Dim] // bias
		for j := 0; j < m.Dim; j++ {
			s += w[j] * x[j]
		}
		buf[c] = s
	}
	return buf
}

// logSumExp is the numerically stable log(sum exp(z)).
func logSumExp(z []float64) float64 {
	maxZ := z[0]
	for _, v := range z[1:] {
		if v > maxZ {
			maxZ = v
		}
	}
	var s float64
	for _, v := range z {
		s += math.Exp(v - maxZ)
	}
	return maxZ + math.Log(s)
}

// Loss returns the mean cross-entropy over the dataset plus L2 penalty.
func (m Softmax) Loss(params []float64, ds *Dataset) (float64, error) {
	if err := m.checkEval(params, ds); err != nil {
		return 0, err
	}
	buf := make([]float64, m.Classes)
	var total float64
	for i, x := range ds.Points {
		z := m.logits(params, x, buf)
		total += logSumExp(z) - z[ds.Labels[i]]
	}
	total /= float64(ds.Len())
	if m.Reg > 0 {
		total += 0.5 * m.Reg * vecmath.NormSq(params)
	}
	return total, nil
}

// Grad returns the gradient of the mean cross-entropy over the given point
// indices of the dataset (a minibatch), plus the L2 term.
func (m Softmax) Grad(params []float64, ds *Dataset, idx []int) ([]float64, error) {
	if err := m.checkEval(params, ds); err != nil {
		return nil, err
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("empty minibatch: %w", ErrArgs)
	}
	stride := m.Dim + 1
	g := make([]float64, len(params))
	buf := make([]float64, m.Classes)
	probs := make([]float64, m.Classes)
	for _, i := range idx {
		if i < 0 || i >= ds.Len() {
			return nil, fmt.Errorf("batch index %d out of [0, %d): %w", i, ds.Len(), ErrArgs)
		}
		x := ds.Points[i]
		z := m.logits(params, x, buf)
		lse := logSumExp(z)
		for c := 0; c < m.Classes; c++ {
			probs[c] = math.Exp(z[c] - lse)
		}
		probs[ds.Labels[i]] -= 1
		for c := 0; c < m.Classes; c++ {
			coeff := probs[c]
			if coeff == 0 {
				continue
			}
			row := g[c*stride : (c+1)*stride]
			for j := 0; j < m.Dim; j++ {
				row[j] += coeff * x[j]
			}
			row[m.Dim] += coeff // bias input is 1
		}
	}
	inv := 1 / float64(len(idx))
	for i := range g {
		g[i] *= inv
	}
	if m.Reg > 0 {
		if err := vecmath.AxpyInPlace(g, m.Reg, params); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Predict returns the argmax class for one feature vector.
func (m Softmax) Predict(params, x []float64) (int, error) {
	if err := m.check(); err != nil {
		return 0, err
	}
	if len(params) != m.ParamDim() || len(x) != m.Dim {
		return 0, fmt.Errorf("predict param dim %d, x dim %d: %w", len(params), len(x), ErrArgs)
	}
	buf := make([]float64, m.Classes)
	z := m.logits(params, x, buf)
	best := 0
	for c := 1; c < m.Classes; c++ {
		if z[c] > z[best] {
			best = c
		}
	}
	return best, nil
}

// Accuracy returns the fraction of dataset points the model classifies
// correctly.
func (m Softmax) Accuracy(params []float64, ds *Dataset) (float64, error) {
	if err := m.checkEval(params, ds); err != nil {
		return 0, err
	}
	correct := 0
	for i, x := range ds.Points {
		p, err := m.Predict(params, x)
		if err != nil {
			return 0, err
		}
		if p == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

func (m Softmax) checkEval(params []float64, ds *Dataset) error {
	if err := m.check(); err != nil {
		return err
	}
	if ds == nil || ds.Len() == 0 {
		return fmt.Errorf("empty dataset: %w", ErrArgs)
	}
	if ds.Classes != m.Classes || ds.Dim != m.Dim {
		return fmt.Errorf("dataset %d classes dim %d vs model %d/%d: %w", ds.Classes, ds.Dim, m.Classes, m.Dim, ErrArgs)
	}
	if len(params) != m.ParamDim() {
		return fmt.Errorf("param dim %d, want %d: %w", len(params), m.ParamDim(), ErrArgs)
	}
	return nil
}

// --- costfunc adapters ---

// LossFunction adapts (model, dataset) to costfunc.Function so the DGD
// engine can track the training loss series of Figures 4-5.
type LossFunction struct {
	Model Model
	Data  *Dataset
}

var _ costfunc.Function = (*LossFunction)(nil)

// Dim implements costfunc.Function.
func (l *LossFunction) Dim() int { return l.Model.ParamDim() }

// Eval implements costfunc.Function.
func (l *LossFunction) Eval(x []float64) (float64, error) { return l.Model.Loss(x, l.Data) }

// --- D-SGD agent ---

// SGDAgent is a dgd.Agent drawing a fresh minibatch from its shard each
// round and reporting the stochastic gradient, as in Appendix K. Batches
// are deterministic given (Seed, round) so executions replay exactly.
type SGDAgent struct {
	Model Model
	Data  *Dataset
	Batch int
	Seed  int64
}

// Gradient implements dgd.Agent.
func (a *SGDAgent) Gradient(round int, x []float64) ([]float64, error) {
	if a.Batch < 1 {
		return nil, fmt.Errorf("batch = %d: %w", a.Batch, ErrArgs)
	}
	if a.Data == nil || a.Data.Len() == 0 {
		return nil, fmt.Errorf("agent has no data: %w", ErrArgs)
	}
	const roundMix int64 = 0x5851F42D4C957F2D
	r := rand.New(rand.NewSource(a.Seed ^ (int64(round)+1)*roundMix))
	b := a.Batch
	if b > a.Data.Len() {
		b = a.Data.Len()
	}
	idx := make([]int, b)
	for i := range idx {
		idx[i] = r.Intn(a.Data.Len())
	}
	return a.Model.Grad(x, a.Data, idx)
}
