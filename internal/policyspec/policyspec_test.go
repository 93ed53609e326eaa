package policyspec

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/qlearn"
	"repro/internal/rng"
)

// env returns the canonical environment on psm at 0.5 s slots.
func env(t testing.TB, psm *device.PSM) Env {
	dev, err := psm.Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return Env{Device: dev, QueueCap: 8, LatencyWeight: 0.3, RatePerSlot: 0.1}
}

func TestParse(t *testing.T) {
	for tok, want := range map[string]Spec{
		"q-dpm": {Name: "q-dpm"}, "q-dpm:tracking": {Name: "q-dpm:tracking"},
		"timeout": {"timeout", 8}, "timeout=0": {"timeout", 0}, "timeout=8.0": {"timeout", 8}, "timeout=1e3": {"timeout", 1000},
		"adaptive-timeout": {"adaptive-timeout", 8}, "adaptive-timeout=1": {"adaptive-timeout", 1}, "adaptive-timeout=128": {"adaptive-timeout", 128},
	} {
		if got, err := Parse(tok); err != nil || got != want {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", tok, got, err, want)
		}
	}
	for _, bad := range []string{
		"", "nosuch", "q-dpm=3", "always-on=5", "greedy-off=1", "predictive=0", "q-dpm:tracking=1", "q-dpm:other",
		"timeout=", "timeout=-3", "timeout=2.5", "timeout=inf", "timeout=NaN", "timeout=1e19",
		"adaptive-timeout=0", "adaptive-timeout=129",
	} {
		if s, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", bad, s)
		}
	}
}

// TestBuild: each entry builds its policy's own concrete type, with the
// flags the registry documents; out-of-range specs do not build.
func TestBuild(t *testing.T) {
	env := env(t, device.Synthetic3())
	for name, want := range map[string]string{ // concrete type, Stateless, NeedsRate, Parametric
		"q-dpm": "*core.Manager false false false", "q-dpm:tracking": "*core.Manager false false false",
		"q-dpm-sarsa": "*core.Manager false false false", "q-dpm-double": "*core.Manager false false false",
		"q-dpm-fuzzy": "*core.Manager false false false", "q-dpm-qos": "*core.Manager false false false",
		"optimal": "*policy.Optimal true true false", "adaptive-lp": "*stochpm.Adaptive false true false",
		"always-on": "*policy.AlwaysOn true false false", "greedy-off": "*policy.GreedyOff true false false",
		"timeout": "*policy.FixedTimeout true false true", "adaptive-timeout": "*policy.AdaptiveTimeout false false true",
		"predictive": "*policy.Predictive false false false",
	} {
		s, _ := Parse(name)
		p, err := s.Build(env, rng.New(1))
		if got := fmt.Sprintf("%T %t %t %t", p, s.Stateless(), s.NeedsRate(), s.Parametric()); err != nil || got != want {
			t.Errorf("%s: built %s (%v), want %s", name, got, err, want)
		}
	}
	if cfg := env.Learner(nil); cfg.Explore != (qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000}) || cfg.Alpha != (qlearn.Polynomial{Scale: 0.5, Omega: 0.65}) {
		t.Errorf("converging learner explores with %v and learns with %v", cfg.Explore, cfg.Alpha)
	}
	for _, s := range []Spec{{"nosuch", 0}, {"q-dpm", 1}, {"timeout", -1}, {"adaptive-timeout", 0}, {"adaptive-timeout", 129}} {
		if _, err := s.Build(env, rng.New(1)); err == nil {
			t.Errorf("Build(%+v) accepted", s)
		}
	}
}

// FuzzParse: Parse never panics, every spec it accepts builds on every
// catalog device, and String round-trips through Parse. The seed corpus
// (testdata/fuzz/FuzzParse) leaves out adaptive-lp: its construction-time
// LP solve takes about half a minute on hdd at 0.5 s slots.
func FuzzParse(f *testing.F) {
	var envs []Env
	for _, psm := range device.Catalog() {
		envs = append(envs, env(f, psm))
	}
	f.Fuzz(func(t *testing.T, tok string) {
		s, err := Parse(tok)
		if err != nil {
			return
		}
		if back, err := Parse(s.String()); err != nil || back != s {
			t.Fatalf("%q parsed to %+v, which does not round-trip through %q: %+v, %v", tok, s, s.String(), back, err)
		}
		for _, env := range envs {
			if _, err := s.Build(env, rng.New(1)); err != nil {
				t.Fatalf("%q does not build on %s: %v", tok, env.Device.PSM.Name, err)
			}
		}
	})
}
