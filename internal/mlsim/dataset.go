// Package mlsim is the distributed-learning substrate for the Appendix-K
// experiments. The paper trains LeNet on MNIST and Fashion-MNIST; those
// artifacts are unavailable offline, so this package substitutes:
//
//   - synthetic 10-class Gaussian-mixture "image" datasets (preset A is
//     well-separated, standing in for MNIST; preset B overlaps classes,
//     standing in for the harder Fashion-MNIST), and
//   - a softmax-regression (multinomial logistic) model in place of LeNet.
//
// The substitution preserves what the experiment measures: per-agent data
// shards, minibatch D-SGD through the same gradient filters, label-flip
// faults (y -> 9 - y) producing systematically wrong gradients, and a
// difficulty ordering between the two datasets.
package mlsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrArgs is returned (wrapped) for invalid configuration.
var ErrArgs = errors.New("mlsim: invalid arguments")

// Dataset is a labeled classification dataset.
type Dataset struct {
	// Points[i] is the i-th feature vector.
	Points [][]float64
	// Labels[i] in [0, Classes).
	Labels []int
	// Classes is the number of classes.
	Classes int
	// Dim is the feature dimension.
	Dim int
}

// Len returns the number of points.
func (d *Dataset) Len() int { return len(d.Points) }

// GenConfig parameterizes synthetic dataset generation.
type GenConfig struct {
	// Classes is the number of classes (10 for the paper's tasks).
	Classes int
	// Dim is the feature dimension.
	Dim int
	// Train and Test are the split sizes.
	Train, Test int
	// Separation scales the class means: larger is easier.
	Separation float64
	// Noise is the within-class standard deviation.
	Noise float64
	// Seed makes generation deterministic.
	Seed int64
}

// Generate draws a Gaussian-mixture classification task: class c has an
// isotropic Gaussian cloud around a deterministic unit-ish mean direction
// scaled by Separation. It returns train and test splits.
func Generate(cfg GenConfig) (train, test *Dataset, err error) {
	if cfg.Classes < 2 {
		return nil, nil, fmt.Errorf("classes = %d, need >= 2: %w", cfg.Classes, ErrArgs)
	}
	if cfg.Dim < 1 {
		return nil, nil, fmt.Errorf("dim = %d, need >= 1: %w", cfg.Dim, ErrArgs)
	}
	if cfg.Train < cfg.Classes || cfg.Test < cfg.Classes {
		return nil, nil, fmt.Errorf("train = %d, test = %d, need >= classes: %w", cfg.Train, cfg.Test, ErrArgs)
	}
	if cfg.Separation <= 0 || cfg.Noise <= 0 {
		return nil, nil, fmt.Errorf("separation = %v, noise = %v must be positive: %w", cfg.Separation, cfg.Noise, ErrArgs)
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Class means: random Gaussian directions, fixed once per dataset.
	means := make([][]float64, cfg.Classes)
	for c := range means {
		m := make([]float64, cfg.Dim)
		for j := range m {
			m[j] = r.NormFloat64()
		}
		// Normalize then scale so separation is comparable across dims.
		var norm float64
		for _, v := range m {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for j := range m {
			m[j] = m[j] / norm * cfg.Separation
		}
		means[c] = m
	}

	draw := func(count int) *Dataset {
		ds := &Dataset{
			Points:  make([][]float64, count),
			Labels:  make([]int, count),
			Classes: cfg.Classes,
			Dim:     cfg.Dim,
		}
		for i := 0; i < count; i++ {
			c := i % cfg.Classes // balanced classes
			x := make([]float64, cfg.Dim)
			for j := range x {
				x[j] = means[c][j] + r.NormFloat64()*cfg.Noise
			}
			ds.Points[i] = x
			ds.Labels[i] = c
		}
		// Shuffle so shards are class-mixed.
		r.Shuffle(count, func(a, b int) {
			ds.Points[a], ds.Points[b] = ds.Points[b], ds.Points[a]
			ds.Labels[a], ds.Labels[b] = ds.Labels[b], ds.Labels[a]
		})
		return ds
	}
	return draw(cfg.Train), draw(cfg.Test), nil
}

// PresetA is the MNIST stand-in: 10 well-separated classes.
func PresetA(seed int64) GenConfig {
	return GenConfig{Classes: 10, Dim: 20, Train: 4000, Test: 1000, Separation: 3.0, Noise: 1.0, Seed: seed}
}

// PresetB is the Fashion-MNIST stand-in: same shape, overlapping classes.
// The separation-to-noise ratio is tuned so the fault-free accuracy drop
// from preset A mirrors the paper's MNIST -> Fashion-MNIST drop
// (roughly 90% -> 80%).
func PresetB(seed int64) GenConfig {
	return GenConfig{Classes: 10, Dim: 20, Train: 4000, Test: 1000, Separation: 2.4, Noise: 1.1, Seed: seed}
}

// Preset returns the named dataset preset: "a" is the MNIST stand-in
// (PresetA), "b" the Fashion-MNIST stand-in (PresetB). It is the string
// face the sweep problem registry selects presets through.
func Preset(name string, seed int64) (GenConfig, error) {
	switch name {
	case "a":
		return PresetA(seed), nil
	case "b":
		return PresetB(seed), nil
	default:
		return GenConfig{}, fmt.Errorf("unknown dataset preset %q (want a or b): %w", name, ErrArgs)
	}
}

// Shard splits a dataset into n near-equal contiguous shards (the dataset
// is already shuffled at generation). It returns one Dataset per agent;
// shards share the backing point slices but a shard's FlipLabels never
// mutates another shard.
func Shard(ds *Dataset, n int) ([]*Dataset, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("empty dataset: %w", ErrArgs)
	}
	if n < 1 || n > ds.Len() {
		return nil, fmt.Errorf("%d shards of %d points: %w", n, ds.Len(), ErrArgs)
	}
	out := make([]*Dataset, n)
	total := ds.Len()
	for i := 0; i < n; i++ {
		lo := i * total / n
		hi := (i + 1) * total / n
		labels := make([]int, hi-lo)
		copy(labels, ds.Labels[lo:hi])
		out[i] = &Dataset{
			Points:  ds.Points[lo:hi:hi],
			Labels:  labels,
			Classes: ds.Classes,
			Dim:     ds.Dim,
		}
	}
	return out, nil
}

// FlipLabels applies the Appendix-K label-flipping fault in place:
// y -> (Classes-1) - y for every point of the shard.
func FlipLabels(ds *Dataset) {
	for i, y := range ds.Labels {
		ds.Labels[i] = ds.Classes - 1 - y
	}
}
