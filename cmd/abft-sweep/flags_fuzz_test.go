package main

import (
	"strings"
	"testing"
)

// nonFinite reports whether a rendered scenario-key component carries a
// NaN or an infinity, which no export can encode.
func nonFinite(s string) bool {
	return strings.Contains(s, "NaN") || strings.Contains(s, "Inf")
}

// FuzzChaosFlag: a -chaos term never panics the parser; one it accepts
// either fails the spec's validation or renders (the scenario-key component
// and the CHAOS column) finitely and parses back to the same rendering — and
// renders empty only when it injects nothing.
func FuzzChaosFlag(f *testing.F) {
	for _, s := range []string{
		"omit:0.1", "crash:0.1+omit:0.2+retry:2:0.1", "delay:0.1:0.5", "corrupt:0.05+dup:0.1",
		"retry:3:0.1", "omit:0.5+retry:3:NaN", "crash:NaN", "delay:0.1:Inf", "omit:-0", "dup:1e-320",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cs, err := parseChaosSpec(s)
		if err != nil || cs.Validate() != nil {
			return
		}
		key := cs.String()
		if nonFinite(key) {
			t.Fatalf("-chaos %q validated and renders %q", s, key)
		}
		if key == "" {
			if !cs.IsNone() {
				t.Fatalf("-chaos %q injects faults but renders as no chaos", s)
			}
			return
		}
		back, err := parseChaosSpec(key)
		if err != nil {
			t.Fatalf("-chaos %q renders %q, which does not parse: %v", s, key, err)
		}
		if got := back.String(); got != key {
			t.Fatalf("-chaos %q renders %q, which parses back to %q", s, key, got)
		}
	})
}

// FuzzAsyncFlags: the -async-latency, -async-policy, -async-stale,
// -straggler-rate and -straggler-factor flags never panic the parsers, and
// every async point they build either fails the spec's validation or renders
// its scenario-key component finitely.
func FuzzAsyncFlags(f *testing.F) {
	f.Add("uniform:0.5:2", "first-k:3", "reuse-last", "0,0.25", 4.0, 2)
	f.Add("pareto:1:1.5", "deadline:2", "drop", "0", 1.0, 0)
	f.Add("fixed:Inf", "wait-all", "drop", "0", 1.0, 0)
	f.Add("uniform:NaN:1", "deadline:NaN", "weighted", "NaN", 0.0, 0)
	f.Fuzz(func(t *testing.T, latency, policy, stale, rates string, factor float64, maxStale int) {
		specs, err := buildAsyncAxis(latency, policy, stale, rates, factor, maxStale, true)
		if err != nil {
			return
		}
		for _, a := range specs {
			if a.Validate() != nil {
				continue
			}
			if key := a.String(); nonFinite(key) {
				t.Fatalf("async flags %q %q %q %q %v validated and render %q", latency, policy, stale, rates, factor, key)
			}
		}
	})
}
