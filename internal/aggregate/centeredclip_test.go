package aggregate

import (
	"errors"
	"math/rand"
	"testing"

	"byzopt/internal/vecmath"
)

func TestCenteredClipRobust(t *testing.T) {
	grads := [][]float64{
		{1, 1}, {1.1, 0.9}, {0.9, 1.1}, {1.05, 1.0}, {0.95, 1.0},
		{1e6, -1e6}, // Byzantine
	}
	got, err := CenteredClip{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := vecmath.Dist(got, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.5 {
		t.Fatalf("centered clip dragged to %v", got)
	}
}

func TestCenteredClipIdenticalGradients(t *testing.T) {
	g := []float64{3, -4}
	grads := [][]float64{g, g, g, g, g}
	got, err := CenteredClip{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(got, g, 1e-9) {
		t.Fatalf("identical gradients: %v", got)
	}
}

func TestCenteredClipMedianRadiusBoundsAnOutlier(t *testing.T) {
	grads := [][]float64{{0, 0}, {1, 0}, {0, 1}, {100, 100}}
	got, err := CenteredClip{}.Aggregate(grads, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The warm start is (0.5, 0.5) and the median distance from it √0.5:
	// clipped to that radius, the outlier pulls exactly as hard as the three
	// others, which sit at it, pull back, so the center does not move.
	if !approxEqual(got, []float64{0.5, 0.5}, 1e-9) {
		t.Fatalf("median radius failed to bound influence: %v", got)
	}
}

func TestCenteredClipConditions(t *testing.T) {
	grads := [][]float64{{1}, {2}, {3}, {4}}
	if _, err := (CenteredClip{}).Aggregate(grads, 2); !errors.Is(err, ErrTooManyFaults) {
		t.Errorf("n <= 2f: %v", err)
	}
	if _, err := (CenteredClip{}).Aggregate(nil, 0); !errors.Is(err, ErrInput) {
		t.Errorf("empty: %v", err)
	}
}

func TestCenteredClipFaultFreeNearMean(t *testing.T) {
	// With no outliers the clipped steps pull the warm start, the
	// coordinate-wise median, toward the mean.
	r := rand.New(rand.NewSource(8))
	grads := make([][]float64, 9)
	for i := range grads {
		grads[i] = []float64{r.NormFloat64(), r.NormFloat64()}
	}
	mean, err := Mean{}.Aggregate(grads, 0)
	if err != nil {
		t.Fatal(err)
	}
	median, err := CWMedian{}.Aggregate(grads, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CenteredClip{}.Aggregate(grads, 0)
	if err != nil {
		t.Fatal(err)
	}
	fromMedian, err := vecmath.Dist(median, mean)
	if err != nil {
		t.Fatal(err)
	}
	fromClip, err := vecmath.Dist(got, mean)
	if err != nil {
		t.Fatal(err)
	}
	if fromClip >= fromMedian {
		t.Fatalf("centered clip %v is no nearer the mean %v than its warm start %v", got, mean, median)
	}
}

func TestCenteredClipInRegistry(t *testing.T) {
	fl, err := New("centeredclip")
	if err != nil {
		t.Fatal(err)
	}
	if fl.Name() != "centeredclip" {
		t.Errorf("name = %s", fl.Name())
	}
	found := false
	for _, n := range Names() {
		if n == "centeredclip" {
			found = true
		}
	}
	if !found {
		t.Error("centeredclip missing from Names()")
	}
}
