// Package sensing applies the paper's framework to fault-tolerant
// distributed state estimation (Section 2.4): n sensors each make partial
// linear observations y_i = C_i x + noise of a system state x in R^d, and
// up to f sensors may report arbitrary values.
//
// The classic condition for exact recovery — 2f-sparse observability (the
// state is determined by the observations of any n-2f sensors) — is, as
// the paper notes, exactly 2f-redundancy of the induced costs
// Q_i(x) = ||y_i - C_i x||²; noisy observations induce (2f, ε)-redundancy
// instead. A System carries the induced costs as a core.Problem — sensor i
// contributes (C_iᵀC_i, C_iᵀY_i) — so the generic theory applies to it as it
// is (core.MeasureRedundancy measures its ε), and the package adds
// the sensing-specific pieces: the sparse-observability check, the
// Theorem-2 exhaustive estimator, and the per-sensor costs (Costs) from
// which filtered gradient descent runs, as the sweep's sensing workload
// does.
package sensing

import (
	"errors"
	"fmt"
	"math/rand"

	"byzopt/internal/core"
	"byzopt/internal/costfunc"
	"byzopt/internal/matrix"
	"byzopt/internal/vecmath"
)

// ErrArgs is returned (wrapped) for invalid inputs.
var ErrArgs = errors.New("sensing: invalid arguments")

// Sensor is one observer: Y = C x + noise, with C having one row per scalar
// measurement.
type Sensor struct {
	// C is the observation matrix (rows x dim).
	C *matrix.Matrix
	// Y is the reported measurement vector (len = C.Rows()). A Byzantine
	// sensor may report anything.
	Y []float64
}

// System is a collection of sensors observing a common state.
type System struct {
	*core.Problem
	sensors []Sensor
}

// NewSystem validates and copies the sensors. All observation matrices
// must share the state dimension.
func NewSystem(sensors []Sensor) (*System, error) {
	if len(sensors) == 0 {
		return nil, fmt.Errorf("no sensors: %w", ErrArgs)
	}
	if sensors[0].C == nil {
		return nil, fmt.Errorf("sensor 0 has nil observation matrix: %w", ErrArgs)
	}
	dim := sensors[0].C.Cols()
	cp := make([]Sensor, len(sensors))
	hess := make([]*matrix.Matrix, len(sensors))
	lin := make([][]float64, len(sensors))
	for i, s := range sensors {
		if s.C == nil {
			return nil, fmt.Errorf("sensor %d has nil observation matrix: %w", i, ErrArgs)
		}
		if s.C.Cols() != dim {
			return nil, fmt.Errorf("sensor %d observes dim %d, want %d: %w", i, s.C.Cols(), dim, ErrArgs)
		}
		if s.C.Rows() != len(s.Y) {
			return nil, fmt.Errorf("sensor %d has %d rows but %d measurements: %w", i, s.C.Rows(), len(s.Y), ErrArgs)
		}
		cp[i] = Sensor{C: s.C.Clone(), Y: vecmath.Clone(s.Y)}
		hess[i], lin[i] = s.C.Gram(), make([]float64, dim)
		for r, y := range s.Y {
			if err := vecmath.AxpyInPlace(lin[i], y, s.C.Row(r)); err != nil {
				return nil, err
			}
		}
	}
	p, err := core.NewHessianProblem(hess, lin)
	if err != nil {
		return nil, fmt.Errorf("sensing: %w", err)
	}
	return &System{Problem: p, sensors: cp}, nil
}

// Synthetic generates a deterministic n-sensor system observing a dim-state:
// each sensor holds `rows` Gaussian measurement rows, and measurements are
// y_i = C_i x* + noise·N(0, 1) with ground truth x* = (1, ..., 1). The same
// (n, dim, rows, noise, seed) always yields the same system, which is what
// lets the sweep engine treat sensing instances as replayable grid points.
func Synthetic(n, dim, rows int, noise float64, seed int64) (*System, error) {
	if n < 1 || dim < 1 || rows < 1 {
		return nil, fmt.Errorf("n=%d dim=%d rows=%d must be positive: %w", n, dim, rows, ErrArgs)
	}
	if noise < 0 {
		return nil, fmt.Errorf("negative noise %v: %w", noise, ErrArgs)
	}
	r := rand.New(rand.NewSource(seed))
	xstar := vecmath.Ones(dim)
	sensors := make([]Sensor, n)
	for i := range sensors {
		data := make([]float64, rows*dim)
		for j := range data {
			data[j] = r.NormFloat64()
		}
		c, err := matrix.New(rows, dim, data)
		if err != nil {
			return nil, err
		}
		y := make([]float64, rows)
		for k := 0; k < rows; k++ {
			dot, err := vecmath.Dot(c.Row(k), xstar)
			if err != nil {
				return nil, err
			}
			y[k] = dot + noise*r.NormFloat64()
		}
		sensors[i] = Sensor{C: c, Y: y}
	}
	return NewSystem(sensors)
}

// Costs returns the per-sensor induced costs Q_i(x) = ||y_i - C_i x||², the
// agent costs of the paper's Section-2.4 reduction.
func (s *System) Costs() ([]costfunc.Differentiable, error) {
	out := make([]costfunc.Differentiable, len(s.sensors))
	for i, sen := range s.sensors {
		c, err := costfunc.NewLeastSquares(sen.C, sen.Y)
		if err != nil {
			return nil, fmt.Errorf("sensor %d cost: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// Stacked returns the stacked observation matrix and measurement vector of
// a sensor subset: the least-squares system of its state estimate and of its
// aggregate cost.
func (s *System) Stacked(idx []int) (*matrix.Matrix, []float64, error) {
	if len(idx) == 0 {
		return nil, nil, fmt.Errorf("empty subset: %w", ErrArgs)
	}
	var rows [][]float64
	var ys []float64
	for _, i := range idx {
		if i < 0 || i >= len(s.sensors) {
			return nil, nil, fmt.Errorf("sensor %d out of [0, %d): %w", i, len(s.sensors), ErrArgs)
		}
		sen := s.sensors[i]
		for r := 0; r < sen.C.Rows(); r++ {
			rows = append(rows, sen.C.Row(r))
			ys = append(ys, sen.Y[r])
		}
	}
	m, err := matrix.FromRows(rows)
	if err != nil {
		return nil, nil, err
	}
	return m, ys, nil
}

// SparseObservable reports whether the system is 2f-sparse observable: the
// stacked observation matrix of every (n-2f)-subset has full column rank,
// so the state is determined by any n-2f sensors. Per Section 2.4 this is
// equivalent to 2f-redundancy of the induced costs (in the noise-free
// case), and it is what makes the redundancy measurement at f succeed: that
// enumeration solves every (n-2f)-subset, and a rank-deficient one stops it
// with matrix.ErrSingular.
func (s *System) SparseObservable(f int) (bool, error) {
	n := len(s.sensors)
	if f < 0 || 2*f >= n {
		return false, fmt.Errorf("need 0 <= f < n/2, got n=%d f=%d: %w", n, f, ErrArgs)
	}
	_, err := core.MeasureRedundancy(s.Problem, f, core.ExactSize)
	if errors.Is(err, matrix.ErrSingular) {
		return false, nil
	}
	return err == nil, err
}

// Estimate runs the Theorem-2 exhaustive estimator: the returned state is
// within 2ε of the estimate any (n-f)-subset of honest sensors would
// produce, despite up to f Byzantine sensors.
func (s *System) Estimate(f int) (*core.ExhaustiveResult, error) {
	res, err := core.ExhaustiveResilient(s.Problem, f)
	if err != nil {
		return nil, fmt.Errorf("sensing: %w", err)
	}
	return res, nil
}
