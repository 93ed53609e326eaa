package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/device"
	"repro/internal/policyspec"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestBuildWorkloadAllKinds(t *testing.T) {
	for _, name := range []string{"bernoulli", "poisson", "onoff", "pareto"} {
		arr, err := buildWorkload(name, 0.2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		s := rng.New(1)
		for i := 0; i < 100; i++ {
			if c := arr.Next(s); c < 0 {
				t.Errorf("%s emitted negative count", name)
			}
		}
	}
	if _, err := buildWorkload("nope", 0.2); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := buildWorkload("pareto", 0); err == nil {
		t.Error("pareto with rate 0 accepted")
	}
	// On/off clamps the burst rate at 1.
	if _, err := buildWorkload("onoff", 0.5); err != nil {
		t.Errorf("onoff at high rate: %v", err)
	}
}

// TestBuildPolicyAllKinds: -policy takes registry specs, labelled as
// given, a bare timeout taking -timeout, and refuses bad specs before
// any run; a stateless policy is built once and shared by every replica
// in either mode, a learner built per replica.
func TestBuildPolicyAllKinds(t *testing.T) {
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	env := policyspec.Env{Device: dev, QueueCap: 8, LatencyWeight: 0.3, RatePerSlot: 0.1}
	for tok, want := range map[string]string{"q-dpm:tracking": "q-dpm", "optimal": "optimal", "adaptive-lp": "adaptive-lp", "timeout": "timeout-20", "timeout=3": "timeout-3"} {
		pf, err := policyFactory(tok, 20, env)
		if err != nil || pf.Name != tok {
			t.Fatalf("%s: labelled %q, %v", tok, pf.Name, err)
		}
		p1, err := pf.New(rng.New(1))
		if p2, _ := pf.New(rng.New(1)); err != nil || p1.Name() != want || (p1 == p2) != (tok != "q-dpm:tracking" && tok != "adaptive-lp") {
			t.Errorf("%s: built %v (%v), shared %v", tok, p1, err, p1 == p2)
		}
	}
	for _, bad := range []string{"nope", "q-dpm=3", "timeout=2.5", "adaptive-timeout=0", "adaptive-timeout"} {
		if _, err := policyFactory(bad, 200, env); err == nil {
			t.Errorf("-policy %s -timeout 200 accepted", bad)
		}
	}
}

func TestBuildCTSourceAllKinds(t *testing.T) {
	for _, name := range []string{"bernoulli", "poisson", "exp", "pareto", "weibull", "erlang", "hyperexp", "uniform"} {
		factory, desc, err := buildCTSource(name, "", 0.5)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if desc == "" {
			t.Errorf("%s: empty source description", name)
		}
		src, err := factory()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		s := rng.New(1)
		prev := 0.0
		for i := 0; i < 50; i++ {
			tt := src.Next(s)
			if tt < prev {
				t.Errorf("%s: arrival times not monotone (%v after %v)", name, tt, prev)
				break
			}
			prev = tt
		}
	}
	if _, _, err := buildCTSource("nope", "", 1); err == nil {
		t.Error("unknown ct workload accepted")
	}
	if _, _, err := buildCTSource("exp", "/nonexistent/trace", 1); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestBuildCTSourceTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.txt")
	tr := &trace.Trace{Times: []float64{0.5, 1.5, 4}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	factory, _, err := buildCTSource("exp", path, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(1)
	for _, want := range tr.Times {
		if got := src.Next(s); got != want {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
	if got := src.Next(s); !math.IsInf(got, 1) {
		t.Fatalf("exhausted trace returned %v, want +Inf", got)
	}
}
