package mlsim

import (
	"errors"
	"math"
	"testing"

	"byzopt/internal/vecmath"
)

func genSmall(t *testing.T, seed int64) (*Dataset, *Dataset) {
	t.Helper()
	train, test, err := Generate(GenConfig{
		Classes: 4, Dim: 5, Train: 400, Test: 100,
		Separation: 3, Noise: 0.8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestGenerateShapes(t *testing.T) {
	train, test := genSmall(t, 1)
	if train.Len() != 400 || test.Len() != 100 {
		t.Fatalf("sizes %d, %d", train.Len(), test.Len())
	}
	if train.Classes != 4 || train.Dim != 5 {
		t.Fatalf("classes %d dim %d", train.Classes, train.Dim)
	}
	for i, x := range train.Points {
		if len(x) != 5 {
			t.Fatalf("point %d has dim %d", i, len(x))
		}
		if train.Labels[i] < 0 || train.Labels[i] >= 4 {
			t.Fatalf("label %d = %d", i, train.Labels[i])
		}
	}
}

func TestGenerateBalancedClasses(t *testing.T) {
	train, _ := genSmall(t, 2)
	counts := make([]int, train.Classes)
	for _, y := range train.Labels {
		counts[y]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Errorf("class %d has %d points, want 100", c, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a1, _ := genSmall(t, 7)
	a2, _ := genSmall(t, 7)
	b, _ := genSmall(t, 8)
	if !approxEqual(a1.Points[0], a2.Points[0], 0) {
		t.Error("same seed should reproduce")
	}
	if approxEqual(a1.Points[0], b.Points[0], 1e-12) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{Classes: 1, Dim: 5, Train: 10, Test: 10, Separation: 1, Noise: 1},
		{Classes: 2, Dim: 0, Train: 10, Test: 10, Separation: 1, Noise: 1},
		{Classes: 4, Dim: 5, Train: 2, Test: 10, Separation: 1, Noise: 1},
		{Classes: 2, Dim: 5, Train: 10, Test: 10, Separation: 0, Noise: 1},
		{Classes: 2, Dim: 5, Train: 10, Test: 10, Separation: 1, Noise: -1},
	}
	for i, cfg := range bad {
		if _, _, err := Generate(cfg); !errors.Is(err, ErrArgs) {
			t.Errorf("config %d: want ErrArgs, got %v", i, err)
		}
	}
}

func TestPresets(t *testing.T) {
	a := PresetA(1)
	b := PresetB(1)
	if a.Classes != 10 || b.Classes != 10 {
		t.Error("presets must have 10 classes")
	}
	// B is harder: lower separation-to-noise ratio.
	if a.Separation/a.Noise <= b.Separation/b.Noise {
		t.Error("preset B must be harder than preset A")
	}
}

func TestShard(t *testing.T) {
	train, _ := genSmall(t, 3)
	shards, err := Shard(train, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 10 {
		t.Fatalf("%d shards", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
		if s.Len() != 40 {
			t.Errorf("shard size %d, want 40", s.Len())
		}
	}
	if total != train.Len() {
		t.Errorf("shards cover %d of %d points", total, train.Len())
	}
	if _, err := Shard(nil, 2); !errors.Is(err, ErrArgs) {
		t.Errorf("nil dataset: %v", err)
	}
	if _, err := Shard(train, 0); !errors.Is(err, ErrArgs) {
		t.Errorf("zero shards: %v", err)
	}
	if _, err := Shard(train, 401); !errors.Is(err, ErrArgs) {
		t.Errorf("too many shards: %v", err)
	}
}

func TestFlipLabelsIsolatedPerShard(t *testing.T) {
	train, _ := genSmall(t, 4)
	shards, err := Shard(train, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int(nil), shards[1].Labels...)
	FlipLabels(shards[0])
	for i, y := range shards[1].Labels {
		if y != before[i] {
			t.Fatal("flipping shard 0 changed shard 1")
		}
	}
	// Flip is an involution of y -> k-1-y.
	for i, y := range shards[0].Labels {
		_ = i
		if y < 0 || y >= shards[0].Classes {
			t.Fatal("flip left range")
		}
	}
	FlipLabels(shards[0])
	// Double flip restores: check against the original train slice.
	for i, y := range shards[0].Labels {
		if y != train.Labels[i] {
			t.Fatalf("double flip not identity at %d", i)
		}
	}
}

func TestSoftmaxGradMatchesNumeric(t *testing.T) {
	train, _ := genSmall(t, 5)
	m := Softmax{Classes: 4, Dim: 5, Reg: 0.01}
	params := make([]float64, m.ParamDim())
	for i := range params {
		params[i] = 0.1 * float64(i%7-3)
	}
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	sub := &Dataset{Points: train.Points[:32], Labels: train.Labels[:32], Classes: 4, Dim: 5}
	g, err := m.Grad(params, sub, idx)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric gradient via central differences on the loss over the same
	// 32 points.
	h := 1e-6
	for k := 0; k < len(params); k += 5 { // sample coordinates for speed
		pp := vecmath.Clone(params)
		pp[k] += h
		up, err := m.Loss(pp, sub)
		if err != nil {
			t.Fatal(err)
		}
		pp[k] -= 2 * h
		down, err := m.Loss(pp, sub)
		if err != nil {
			t.Fatal(err)
		}
		num := (up - down) / (2 * h)
		if math.Abs(num-g[k]) > 1e-4 {
			t.Fatalf("coordinate %d: analytic %v vs numeric %v", k, g[k], num)
		}
	}
}

func TestSoftmaxStableUnderHugeLogits(t *testing.T) {
	m := Softmax{Classes: 3, Dim: 2}
	params := make([]float64, m.ParamDim())
	for i := range params {
		params[i] = 500 // enormous weights
	}
	ds := &Dataset{Points: [][]float64{{1, 1}}, Labels: []int{0}, Classes: 3, Dim: 2}
	loss, err := m.Loss(params, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss overflowed: %v", loss)
	}
	g, err := m.Grad(params, ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !vecmath.IsFinite(g) {
		t.Fatalf("gradient overflowed: %v", g)
	}
}

func TestSoftmaxValidation(t *testing.T) {
	m := Softmax{Classes: 3, Dim: 2}
	ds := &Dataset{Points: [][]float64{{1, 1}}, Labels: []int{0}, Classes: 3, Dim: 2}
	params := make([]float64, m.ParamDim())
	if _, err := m.Loss(params[:2], ds); !errors.Is(err, ErrArgs) {
		t.Errorf("short params: %v", err)
	}
	if _, err := m.Loss(params, nil); !errors.Is(err, ErrArgs) {
		t.Errorf("nil dataset: %v", err)
	}
	wrong := &Dataset{Points: [][]float64{{1}}, Labels: []int{0}, Classes: 3, Dim: 1}
	if _, err := m.Loss(params, wrong); !errors.Is(err, ErrArgs) {
		t.Errorf("mismatched dataset: %v", err)
	}
	if _, err := m.Grad(params, ds, nil); !errors.Is(err, ErrArgs) {
		t.Errorf("empty batch: %v", err)
	}
	if _, err := m.Grad(params, ds, []int{5}); !errors.Is(err, ErrArgs) {
		t.Errorf("bad batch index: %v", err)
	}
	if _, err := m.Predict(params, []float64{1}); !errors.Is(err, ErrArgs) {
		t.Errorf("bad predict dim: %v", err)
	}
	bad := Softmax{Classes: 1, Dim: 2}
	if _, err := bad.Loss(nil, ds); !errors.Is(err, ErrArgs) {
		t.Errorf("bad model: %v", err)
	}
}

func TestGradientDescentLearnsEasyTask(t *testing.T) {
	// Widely separated classes: near-perfect accuracy should be reachable.
	train, test, err := Generate(GenConfig{
		Classes: 4, Dim: 5, Train: 400, Test: 100,
		Separation: 6, Noise: 0.6, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := Softmax{Classes: 4, Dim: 5, Reg: 1e-4}
	params := make([]float64, m.ParamDim())
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	for step := 0; step < 300; step++ {
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
		t.Errorf("test accuracy = %v, want >= 0.9 on a well-separated task", acc)
	}
}

func TestSGDAgentDeterministicPerRound(t *testing.T) {
	train, _ := genSmall(t, 9)
	m := Softmax{Classes: 4, Dim: 5}
	params := make([]float64, m.ParamDim())
	a := &SGDAgent{Model: m, Data: train, Batch: 16, Seed: 3}
	g1, err := a.Gradient(5, params)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := a.Gradient(5, params)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(g1, g2, 0) {
		t.Error("same round should resample identically")
	}
	g3, err := a.Gradient(6, params)
	if err != nil {
		t.Fatal(err)
	}
	if approxEqual(g1, g3, 1e-12) {
		t.Error("different rounds should resample differently")
	}
}

func TestSGDAgentValidation(t *testing.T) {
	m := Softmax{Classes: 4, Dim: 5}
	params := make([]float64, m.ParamDim())
	a := &SGDAgent{Model: m, Data: nil, Batch: 16}
	if _, err := a.Gradient(0, params); !errors.Is(err, ErrArgs) {
		t.Errorf("nil data: %v", err)
	}
	train, _ := genSmall(t, 10)
	b := &SGDAgent{Model: m, Data: train, Batch: 0}
	if _, err := b.Gradient(0, params); !errors.Is(err, ErrArgs) {
		t.Errorf("zero batch: %v", err)
	}
	// Batch larger than shard clamps rather than failing.
	c := &SGDAgent{Model: m, Data: train, Batch: 10000, Seed: 1}
	if _, err := c.Gradient(0, params); err != nil {
		t.Errorf("oversized batch should clamp: %v", err)
	}
}

func TestLossFunction(t *testing.T) {
	train, _ := genSmall(t, 11)
	m := Softmax{Classes: 4, Dim: 5}
	lf := &LossFunction{Model: m, Data: train}
	params := make([]float64, m.ParamDim())
	v, err := lf.Eval(params)
	if err != nil {
		t.Fatal(err)
	}
	// Zero parameters: loss = log(K).
	if math.Abs(v-math.Log(4)) > 1e-9 {
		t.Errorf("zero-param loss = %v, want log 4 = %v", v, math.Log(4))
	}
}

// approxEqual reports whether a and b have the same length and agree entry
// by entry within absolute tolerance tol.
func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
