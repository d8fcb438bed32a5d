// Learning: Byzantine-robust distributed SGD on a classification task,
// reproducing the shape of Appendix K (Figures 4-5).
//
// Ten agents share a synthetic 10-class dataset (the offline stand-in for
// MNIST; see package mlsim's comment). Three of them are Byzantine: their data
// is label-flipped (y -> 9-y) or their gradients reversed. D-SGD with the
// CGE or CWTM filter tracks the fault-free run, while plain averaging is
// wrecked by the same faults.
//
// Run with: go run ./examples/learning
package main

import (
	"fmt"
	"log"

	"byzopt"
	"byzopt/internal/byzantine"
	"byzopt/internal/mlsim"
)

const (
	agents = 10
	faults = 3
	batch  = 64
	rounds = 250
	seed   = 11
)

func main() {
	gen := mlsim.PresetA(seed)
	gen.Train, gen.Test = 2000, 500 // keep the example snappy
	train, test, err := mlsim.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}
	model := mlsim.Softmax{Classes: gen.Classes, Dim: gen.Dim, Reg: 1e-4}

	fmt.Printf("%-28s %9s %9s\n", "variant", "loss", "accuracy")
	for _, v := range []struct {
		name   string
		filter string
		fault  string
	}{
		{"fault-free (7 honest only)", "mean", ""},
		{"plain mean + label-flip", "mean", "lf"},
		{"CGE + label-flip", "cge-avg", "lf"},
		{"CWTM + label-flip", "cwtm", "lf"},
		{"CGE + gradient-reverse", "cge-avg", "gr"},
		{"CWTM + gradient-reverse", "cwtm", "gr"},
	} {
		loss, acc, err := runVariant(model, train, test, v.filter, v.fault)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %9.4f %8.1f%%\n", v.name, loss, 100*acc)
	}
	fmt.Println("\nfiltered runs track the fault-free baseline; plain averaging does not")
}

func runVariant(model mlsim.Softmax, train, test *mlsim.Dataset, filterName, fault string) (loss, acc float64, err error) {
	shards, err := mlsim.Shard(train, agents)
	if err != nil {
		return 0, 0, err
	}
	var list []byzopt.Agent
	f := faults
	for i, shard := range shards {
		faulty := i >= agents-faults
		if fault == "" && faulty {
			continue // fault-free baseline: the would-be faulty agents sit out
		}
		if fault == "lf" && faulty {
			mlsim.FlipLabels(shard)
		}
		var agent byzopt.Agent = &mlsim.SGDAgent{
			Model: model, Data: shard, Batch: batch, Seed: seed + int64(i)*997,
		}
		if fault == "gr" && faulty {
			agent, err = byzopt.ByzantineAgent(agent, byzantine.GradientReverse{})
			if err != nil {
				return 0, 0, err
			}
		}
		list = append(list, agent)
	}
	if fault == "" {
		f = 0
	}
	filter, err := byzopt.NewFilter(filterName)
	if err != nil {
		return 0, 0, err
	}
	res, err := byzopt.Run(byzopt.Config{
		Agents: list,
		F:      f,
		Filter: filter,
		Steps:  byzopt.ConstantStep{Eta: 0.05},
		X0:     make([]float64, model.ParamDim()),
		Rounds: rounds,
	})
	if err != nil {
		return 0, 0, err
	}
	loss, err = model.Loss(res.X, train)
	if err != nil {
		return 0, 0, err
	}
	acc, err = model.Accuracy(res.X, test)
	if err != nil {
		return 0, 0, err
	}
	return loss, acc, nil
}
