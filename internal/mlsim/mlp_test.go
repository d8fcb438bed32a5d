package mlsim

import (
	"errors"
	"math"
	"testing"

	"byzopt/internal/vecmath"
)

func TestMLPParamDim(t *testing.T) {
	m := MLP{Classes: 3, Dim: 4, Hidden: 5}
	// 5*(4+1) + 3*(5+1) = 25 + 18 = 43.
	if got := m.ParamDim(); got != 43 {
		t.Fatalf("ParamDim = %d, want 43", got)
	}
}

func TestMLPGradMatchesNumeric(t *testing.T) {
	train, _, err := Generate(GenConfig{
		Classes: 3, Dim: 4, Train: 30, Test: 9,
		Separation: 2, Noise: 0.7, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := MLP{Classes: 3, Dim: 4, Hidden: 6, Reg: 0.01}
	params, err := m.InitParams(1)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	g, err := m.Grad(params, train, idx)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for k := 0; k < len(params); k += 3 { // sample coordinates
		pp := vecmath.Clone(params)
		pp[k] += h
		up, err := m.Loss(pp, train)
		if err != nil {
			t.Fatal(err)
		}
		pp[k] -= 2 * h
		down, err := m.Loss(pp, train)
		if err != nil {
			t.Fatal(err)
		}
		num := (up - down) / (2 * h)
		if math.Abs(num-g[k]) > 1e-4 {
			t.Fatalf("coordinate %d: analytic %v vs numeric %v", k, g[k], num)
		}
	}
}

func TestMLPLearnsEasyTask(t *testing.T) {
	train, test, err := Generate(GenConfig{
		Classes: 3, Dim: 5, Train: 300, Test: 90,
		Separation: 5, Noise: 0.6, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := MLP{Classes: 3, Dim: 5, Hidden: 10, Reg: 1e-4}
	params, err := m.InitParams(2)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	for step := 0; step < 400; step++ {
		g, err := m.Grad(params, train, idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := vecmath.AxpyInPlace(params, -0.5, g); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := m.Accuracy(params, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("MLP accuracy = %v on a well-separated task", acc)
	}
}

func TestMLPInitBreaksSymmetry(t *testing.T) {
	m := MLP{Classes: 3, Dim: 2, Hidden: 4}
	p1, err := m.InitParams(7)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.InitParams(7)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(p1, p2, 0) {
		t.Error("same seed should reproduce init")
	}
	if vecmath.Norm(p1) == 0 {
		t.Error("init must not be all zeros")
	}
	p3, err := m.InitParams(8)
	if err != nil {
		t.Fatal(err)
	}
	if approxEqual(p1, p3, 1e-12) {
		t.Error("different seeds should differ")
	}
}

func TestMLPValidation(t *testing.T) {
	ds := &Dataset{Points: [][]float64{{1, 1}}, Labels: []int{0}, Classes: 3, Dim: 2}
	m := MLP{Classes: 3, Dim: 2, Hidden: 4}
	params := make([]float64, m.ParamDim())
	if _, err := m.Loss(params[:3], ds); !errors.Is(err, ErrArgs) {
		t.Errorf("short params: %v", err)
	}
	if _, err := m.Loss(params, nil); !errors.Is(err, ErrArgs) {
		t.Errorf("nil dataset: %v", err)
	}
	if _, err := m.Grad(params, ds, nil); !errors.Is(err, ErrArgs) {
		t.Errorf("empty batch: %v", err)
	}
	if _, err := m.Grad(params, ds, []int{5}); !errors.Is(err, ErrArgs) {
		t.Errorf("bad index: %v", err)
	}
	bad := MLP{Classes: 1, Dim: 2, Hidden: 4}
	if _, err := bad.Loss(nil, ds); !errors.Is(err, ErrArgs) {
		t.Errorf("bad model: %v", err)
	}
	if _, err := bad.InitParams(0); !errors.Is(err, ErrArgs) {
		t.Errorf("bad init: %v", err)
	}
	if _, err := m.Predict(params, []float64{1}); !errors.Is(err, ErrArgs) {
		t.Errorf("bad predict: %v", err)
	}
}

func TestMLPAsModelInSGDAgent(t *testing.T) {
	// The interface contract: an MLP-backed SGDAgent produces gradients of
	// the right shape, deterministically per round.
	train, _, err := Generate(GenConfig{
		Classes: 3, Dim: 4, Train: 60, Test: 9,
		Separation: 2, Noise: 0.7, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := MLP{Classes: 3, Dim: 4, Hidden: 5}
	params, err := m.InitParams(3)
	if err != nil {
		t.Fatal(err)
	}
	a := &SGDAgent{Model: m, Data: train, Batch: 8, Seed: 4}
	g1, err := a.Gradient(2, params)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := a.Gradient(2, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != m.ParamDim() || !approxEqual(g1, g2, 0) {
		t.Error("MLP agent gradients malformed or nondeterministic")
	}
}
