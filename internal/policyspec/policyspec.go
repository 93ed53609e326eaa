// Package policyspec is the one registry of power-management policy
// names: it parses a spec ("q-dpm", "timeout=8", "adaptive-timeout=16")
// and builds the slotted policy it names, so a name means one policy in
// every command and experiment. It holds the only definitions of the
// Q-DPM learner's two configurations (DESIGN.md §4): q-dpm, the
// converging learner, and q-dpm:tracking, which never stops adapting.
package policyspec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/mdp"
	"repro/internal/policy"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/stochpm"
)

// Spec is a parsed policy spec: a registry name and, for the entries
// that take one, its slot parameter (0 otherwise).
type Spec struct {
	Name  string
	Param int64
}

// Env is what a policy needs from the run it manages: the slotted
// device, the queue and cost model (J per request-slot), and the mean
// arrivals per slot, which only the NeedsRate entries read.
type Env struct {
	Device        *device.Slotted
	QueueCap      int
	LatencyWeight float64
	RatePerSlot   float64
}

// Learner returns the configuration of the converging Q-DPM learner
// (q-dpm) in env, exploring on stream; the variants start from it.
func (e Env) Learner(stream *rng.Stream) core.Config {
	return core.Config{
		Device: e.Device, QueueCap: e.QueueCap, LatencyWeight: e.LatencyWeight, Stream: stream,
		Explore: qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000},
		Alpha:   qlearn.Polynomial{Scale: 0.5, Omega: 0.65},
	}
}

// slots bounds a slot parameter (inclusive) and gives its default.
type slots struct{ def, lo, hi int64 }

// entry is one registry row; param is nil for entries that take none.
type entry struct {
	name      string
	param     *slots
	stateless bool // builds a policy that no run changes
	needsRate bool // builds from an arrival-rate model
	build     func(env Env, param int64, stream *rng.Stream) (slotsim.Policy, error)
}

// learner builds q-dpm with its configuration passed through mut, by
// value: a pointer would move every build's configuration to the heap.
func learner(mut func(core.Config) core.Config) func(Env, int64, *rng.Stream) (slotsim.Policy, error) {
	return func(env Env, _ int64, stream *rng.Stream) (slotsim.Policy, error) {
		return core.New(mut(env.Learner(stream)))
	}
}

// The timeout parameters in slots: the fixed timeout, and the adaptive
// timeout's initial value and the bounds it adapts within.
var timeout, adaptiveTimeout = slots{def: 8, lo: 0, hi: math.MaxInt64}, slots{def: 8, lo: 1, hi: 128}

// registry is the table of policy names, in the order Usage lists them.
var registry = []entry{
	{name: "q-dpm", build: learner(func(c core.Config) core.Config { return c })},
	{name: "q-dpm:tracking", build: learner(func(c core.Config) core.Config {
		c.Explore, c.Alpha = qlearn.EpsGreedy{Eps: 0.08}, qlearn.Constant{C: 0.25}
		return c
	})},
	{name: "q-dpm-sarsa", build: learner(func(c core.Config) core.Config { c.Rule = qlearn.SARSA; return c })},
	{name: "q-dpm-double", build: learner(func(c core.Config) core.Config { c.Rule = qlearn.DoubleQ; return c })},
	{name: "q-dpm-fuzzy", build: learner(func(c core.Config) core.Config { c.Fuzzy = true; return c })},
	{name: "q-dpm-qos", build: learner(func(c core.Config) core.Config { c.QoS = &core.QoSConfig{TargetBacklog: 0.5, Eta: 0.05}; return c })},
	{name: "optimal", stateless: true, needsRate: true, build: func(e Env, _ int64, _ *rng.Stream) (slotsim.Policy, error) {
		d, err := mdp.BuildDPM(mdp.DPMConfig{
			Device: e.Device, ArrivalP: e.RatePerSlot, QueueCap: e.QueueCap, LatencyWeight: e.LatencyWeight,
		})
		if err != nil {
			return nil, err
		}
		return policy.NewOptimalFromModel(d)
	}},
	{name: "adaptive-lp", needsRate: true, build: func(e Env, _ int64, stream *rng.Stream) (slotsim.Policy, error) {
		return stochpm.NewAdaptive(stochpm.AdaptiveConfig{
			Device: e.Device, QueueCap: e.QueueCap, LatencyWeight: e.LatencyWeight, InitialRate: e.RatePerSlot, Stream: stream,
		})
	}},
	{name: "always-on", stateless: true, build: func(e Env, _ int64, _ *rng.Stream) (slotsim.Policy, error) {
		return policy.NewAlwaysOn(e.Device)
	}},
	{name: "greedy-off", stateless: true, build: func(e Env, _ int64, _ *rng.Stream) (slotsim.Policy, error) {
		return policy.NewGreedyOff(e.Device)
	}},
	{name: "timeout", param: &timeout, stateless: true, build: func(e Env, p int64, _ *rng.Stream) (slotsim.Policy, error) {
		return policy.NewFixedTimeout(e.Device, p)
	}},
	{name: "adaptive-timeout", param: &adaptiveTimeout, build: func(e Env, p int64, _ *rng.Stream) (slotsim.Policy, error) {
		return policy.NewAdaptiveTimeout(e.Device, p, adaptiveTimeout.lo, adaptiveTimeout.hi)
	}},
	{name: "predictive", build: func(e Env, _ int64, _ *rng.Stream) (slotsim.Policy, error) {
		return policy.NewPredictive(e.Device, 0.5)
	}},
}

// entry returns s's registry row, or nil for an unknown name.
func (s Spec) entry() *entry {
	for i := range registry {
		if registry[i].name == s.Name {
			return &registry[i]
		}
	}
	return nil
}

// Usage lists the accepted spellings for help and error text, e.g.
// "q-dpm|…|timeout[=N]|adaptive-timeout[=N]|predictive".
func Usage() string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
		if e.param != nil {
			names[i] += "[=N]"
		}
	}
	return strings.Join(names, "|")
}

// Parse parses a policy spec. A parameter is an integer slot count in the
// entry's range (timeout: >= 0; adaptive-timeout: 1 to 128); an absent
// one takes the entry's default (8 for both).
func Parse(tok string) (Spec, error) {
	name, arg, hasArg := strings.Cut(tok, "=")
	s := Spec{Name: name}
	e := s.entry()
	switch {
	case e == nil:
		return Spec{}, fmt.Errorf("policyspec: unknown policy %q (want %s)", tok, Usage())
	case e.param == nil && hasArg:
		return Spec{}, fmt.Errorf("policyspec: policy %q takes no parameter", tok)
	case e.param == nil:
		return s, nil
	case !hasArg:
		s.Param = e.param.def
		return s, nil
	}
	// Parsed as a float so "8.0" and "1e1" count as integers; the upper
	// test is exclusive because float64(MaxInt64) rounds up to 2^63.
	v, err := strconv.ParseFloat(arg, 64)
	if err != nil || v != math.Trunc(v) || !(v >= float64(e.param.lo) && v < float64(e.param.hi)+1) {
		return Spec{}, fmt.Errorf("policyspec: bad parameter in %q (want an integer slot count from %d to %d)", tok, e.param.lo, e.param.hi)
	}
	s.Param = int64(v)
	return s, nil
}

// String returns the spec in canonical form, which Parse maps back to s.
func (s Spec) String() string {
	if s.Parametric() {
		return fmt.Sprintf("%s=%d", s.Name, s.Param)
	}
	return s.Name
}

// Parametric reports whether s's entry takes a slot parameter.
func (s Spec) Parametric() bool { e := s.entry(); return e != nil && e.param != nil }

// Stateless reports whether s builds a policy that no run changes, so
// one build may serve every replica concurrently.
func (s Spec) Stateless() bool { e := s.entry(); return e != nil && e.stateless }

// NeedsRate reports whether s builds from an arrival-rate model
// (Env.RatePerSlot): optimal and adaptive-lp. Every other entry is
// model-free and resettable.
func (s Spec) NeedsRate() bool { e := s.entry(); return e != nil && e.needsRate }

// Build constructs the policy s names in env; the learners and
// adaptive-lp draw from stream. The result is the policy's own concrete
// type (a *core.Manager for the q-dpm entries), with no wrapper.
func (s Spec) Build(env Env, stream *rng.Stream) (slotsim.Policy, error) {
	e := s.entry()
	switch {
	case e == nil:
		return nil, fmt.Errorf("policyspec: unknown policy %q (want %s)", s.Name, Usage())
	case e.param == nil && s.Param != 0, e.param != nil && (s.Param < e.param.lo || s.Param > e.param.hi):
		return nil, fmt.Errorf("policyspec: bad parameter %d for policy %q", s.Param, s.Name)
	}
	return e.build(env, s.Param, stream)
}
