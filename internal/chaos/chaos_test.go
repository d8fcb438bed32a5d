package chaos

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestZeroPlanInjectsNothing(t *testing.T) {
	var p Plan
	if p.Enabled() {
		t.Fatal("zero plan reports Enabled")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("zero plan invalid: %v", err)
	}
	for agent := 0; agent < 8; agent++ {
		if r := p.CrashRound(agent); r != -1 {
			t.Fatalf("zero plan crashes agent %d at round %d", agent, r)
		}
		for round := 0; round < 50; round++ {
			if p.Omit(round, agent, 0) || p.Corrupt(round, agent, 0) ||
				p.Duplicate(round, agent) || p.ExtraDelay(round, agent) != 0 {
				t.Fatalf("zero plan injected a fault at round %d agent %d", round, agent)
			}
		}
	}
	var nilPlan *Plan
	if nilPlan.Enabled() || nilPlan.Crashed(3, 1) || nilPlan.Omit(0, 0, 0) {
		t.Fatal("nil plan injected a fault")
	}
}

func TestDrawsAreDeterministicAndOrderFree(t *testing.T) {
	p := Plan{Seed: 42, CrashRate: 0.3, CrashWindow: 100, OmitRate: 0.2,
		CorruptRate: 0.1, DupRate: 0.15, DelayRate: 0.25, Delay: 2.5, Attempts: 3, RetryDelay: 0.5}
	q := p // identical plan, drawn in a different order below
	type key struct{ r, a, att int }
	forward := map[key][4]bool{}
	for r := 0; r < 30; r++ {
		for a := 0; a < 6; a++ {
			for att := 0; att < 3; att++ {
				forward[key{r, a, att}] = [4]bool{
					p.Omit(r, a, att), p.Corrupt(r, a, att), p.Duplicate(r, a), p.ExtraDelay(r, a) > 0,
				}
			}
		}
	}
	for r := 29; r >= 0; r-- {
		for a := 5; a >= 0; a-- {
			for att := 2; att >= 0; att-- {
				got := [4]bool{
					q.Omit(r, a, att), q.Corrupt(r, a, att), q.Duplicate(r, a), q.ExtraDelay(r, a) > 0,
				}
				if got != forward[key{r, a, att}] {
					t.Fatalf("draw (%d,%d,%d) depends on sampling order", r, a, att)
				}
			}
		}
	}
}

func TestCrashDesignationRespectsWindowAndRate(t *testing.T) {
	p := Plan{Seed: 7, CrashRate: 0.5, CrashWindow: 40}
	crashers := 0
	for agent := 0; agent < 1000; agent++ {
		r := p.CrashRound(agent)
		if r == -1 {
			continue
		}
		crashers++
		if r < 0 || r >= p.CrashWindow {
			t.Fatalf("agent %d crash round %d outside [0, %d)", agent, r, p.CrashWindow)
		}
		if p.Crashed(r-1, agent) {
			t.Fatalf("agent %d crashed before its round", agent)
		}
		if !p.Crashed(r, agent) || !p.Crashed(r+10, agent) {
			t.Fatalf("agent %d not dead from round %d on", agent, r)
		}
	}
	if frac := float64(crashers) / 1000; math.Abs(frac-0.5) > 0.06 {
		t.Fatalf("crash fraction %v far from rate 0.5", frac)
	}
}

func TestRatesApproximatelyHold(t *testing.T) {
	p := Plan{Seed: 11, OmitRate: 0.25}
	hits := 0
	const draws = 20000
	for r := 0; r < 200; r++ {
		for a := 0; a < 100; a++ {
			if p.Omit(r, a, 0) {
				hits++
			}
		}
	}
	if frac := float64(hits) / draws; math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("omission fraction %v far from rate 0.25", frac)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []Plan{
		{OmitRate: -0.1},
		{OmitRate: 1.5},
		{CrashRate: 0.2}, // no window
		{DelayRate: 0.3}, // no delay amount
		{Attempts: -1},
		{RetryDelay: -2},
		{CorruptRate: 2},
		{DupRate: -1},
		// Non-finite values: NaN passes every comparison, +Inf half of them.
		{CrashRate: math.NaN(), CrashWindow: 10},
		{OmitRate: math.NaN()},
		{DelayRate: math.Inf(1), Delay: 1},
		{DelayRate: 0.1, Delay: math.Inf(1)},
		{DelayRate: 0.1, Delay: math.NaN()},
		{Attempts: 3, RetryDelay: math.NaN()},
		{Attempts: 3, RetryDelay: math.Inf(1)},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad plan %+v validated", i, p)
		}
	}
	good := Plan{Seed: 1, CrashRate: 0.1, CrashWindow: 10, OmitRate: 0.1,
		CorruptRate: 0.1, DupRate: 0.1, DelayRate: 0.1, Delay: 1, Attempts: 2, RetryDelay: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestCorruptFrameFlipsExactlyOneBitDeterministically(t *testing.T) {
	p := Plan{Seed: 5, CorruptRate: 1}
	orig := []byte("the quick brown fox jumps over the lazy dog")
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	p.CorruptFrame(a, 3, 2)
	p.CorruptFrame(b, 3, 2)
	if !bytes.Equal(a, b) {
		t.Fatal("corruption is not deterministic")
	}
	diffBits := 0
	for i := range orig {
		x := orig[i] ^ a[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
	p.CorruptFrame(nil, 0, 0) // must not panic
}

func TestCountersAddAndTotal(t *testing.T) {
	var c Counters
	if !c.IsZero() {
		t.Fatal("zero counters not IsZero")
	}
	c.Add(Counters{Crashed: 1, Omitted: 2, Retried: 3, LostRounds: 1})
	c.Add(Counters{Corrupted: 4, Duplicated: 5, Delayed: 6})
	if c.IsZero() {
		t.Fatal("nonzero counters IsZero")
	}
	want := Counters{Crashed: 1, Omitted: 2, Corrupted: 4, Duplicated: 5, Delayed: 6, Retried: 3, LostRounds: 1}
	if c != want {
		t.Fatalf("Add totals %+v, want %+v", c, want)
	}
}

func TestTornWriterStopsPersistingAtLimit(t *testing.T) {
	var buf bytes.Buffer
	w := &TornWriter{W: &buf, Limit: 10}
	for _, chunk := range []string{"hello ", "world ", "more"} {
		n, err := w.Write([]byte(chunk))
		if err != nil || n != len(chunk) {
			t.Fatalf("torn write reported (%d, %v), want silent success", n, err)
		}
	}
	if got := buf.String(); got != "hello worl" {
		t.Fatalf("persisted %q, want the 10-byte prefix", got)
	}
}

func TestTearFileTruncatesInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TearFile(path, 4); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "0123" {
		t.Fatalf("after tear: %q", data)
	}
	if err := TearFile(path, 99); err == nil {
		t.Fatal("tear past EOF accepted")
	}
	if err := TearFile(filepath.Join(t.TempDir(), "absent"), 0); err == nil {
		t.Fatal("tear of missing file accepted")
	}
}
