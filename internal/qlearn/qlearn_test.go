package qlearn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

func defaultCfg() Config {
	return Config{
		NumStates:  4,
		NumActions: 2,
		Gamma:      0.9,
		Alpha:      Constant{C: 0.1},
		Explore:    EpsGreedy{Eps: 0.1},
	}
}

func TestNewAgentValidation(t *testing.T) {
	good := defaultCfg()
	if _, err := NewAgent(good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(Config) Config
	}{
		{"zero states", func(c Config) Config { c.NumStates = 0; return c }},
		{"zero actions", func(c Config) Config { c.NumActions = 0; return c }},
		{"gamma 0", func(c Config) Config { c.Gamma = 0; return c }},
		{"gamma 1", func(c Config) Config { c.Gamma = 1; return c }},
		{"nil schedule", func(c Config) Config { c.Alpha = nil; return c }},
		{"alpha > 1", func(c Config) Config { c.Alpha = Constant{C: 1.5}; return c }},
		{"alpha 0", func(c Config) Config { c.Alpha = Constant{C: 0}; return c }},
		{"nil explorer", func(c Config) Config { c.Explore = nil; return c }},
		// α(1) = Scale for every ω, so these pass a first-visit probe:
		// NaN gives α(2) = NaN, a negative ω a rate above 1 from n = 2 on,
		// and +Inf a rate of 0.
		{"polynomial NaN omega", func(c Config) Config { c.Alpha = Polynomial{Scale: 0.5, Omega: math.NaN()}; return c }},
		{"polynomial negative omega", func(c Config) Config { c.Alpha = Polynomial{Scale: 0.5, Omega: -1}; return c }},
		{"polynomial infinite omega", func(c Config) Config { c.Alpha = Polynomial{Scale: 0.5, Omega: math.Inf(1)}; return c }},
		{"eps NaN", func(c Config) Config { c.Explore = EpsGreedy{Eps: math.NaN()}; return c }},
		{"eps > 1", func(c Config) Config { c.Explore = EpsGreedy{Eps: 1.5}; return c }},
		{"eps < 0", func(c Config) Config { c.Explore = EpsGreedy{Eps: -0.1}; return c }},
		{"eps floor > 1", func(c Config) Config { c.Explore = EpsGreedy{Eps: 0.3, MinEps: 2, DecayTau: 100}; return c }},
		{"eps floor NaN", func(c Config) Config { c.Explore = EpsGreedy{Eps: 0.3, MinEps: math.NaN(), DecayTau: 100}; return c }},
		{"eps tau NaN", func(c Config) Config { c.Explore = EpsGreedy{Eps: 0.3, DecayTau: math.NaN()}; return c }},
		{"boltzmann NaN temp", func(c Config) Config { c.Explore = Boltzmann{Temp: math.NaN()}; return c }},
		{"boltzmann infinite temp", func(c Config) Config { c.Explore = Boltzmann{Temp: math.Inf(1)}; return c }},
		{"boltzmann negative floor", func(c Config) Config { c.Explore = Boltzmann{Temp: 1, MinTemp: -1, DecayTau: 100}; return c }},
		{"boltzmann NaN floor", func(c Config) Config { c.Explore = Boltzmann{Temp: 1, MinTemp: math.NaN(), DecayTau: 100}; return c }},
		{"boltzmann tau NaN", func(c Config) Config { c.Explore = Boltzmann{Temp: 1, DecayTau: math.NaN()}; return c }},
		{"bad trace lambda", func(c Config) Config { c.TraceLambda = 1; return c }},
		{"traces with sarsa", func(c Config) Config { c.Rule = SARSA; c.TraceLambda = 0.5; return c }},
	}
	for _, tc := range cases {
		if _, err := NewAgent(tc.mut(good)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestSchedules(t *testing.T) {
	if a := (Constant{C: 0.2}).Alpha(100); a != 0.2 {
		t.Errorf("constant alpha %v", a)
	}
	if a := (Harmonic{Scale: 1}).Alpha(4); a != 0.25 {
		t.Errorf("harmonic alpha %v", a)
	}
	p := Polynomial{Scale: 1, Omega: 0.5}
	if a := p.Alpha(4); math.Abs(a-0.5) > 1e-12 {
		t.Errorf("polynomial alpha %v", a)
	}
	// Monotone nonincreasing.
	for n := int64(1); n < 100; n++ {
		if p.Alpha(n+1) > p.Alpha(n) {
			t.Fatal("polynomial schedule not monotone")
		}
	}
}

func TestEpsGreedyDecay(t *testing.T) {
	e := EpsGreedy{Eps: 1, MinEps: 0.01, DecayTau: 100}
	if e.Epsilon(0) != 1 {
		t.Errorf("eps(0) = %v", e.Epsilon(0))
	}
	if e.Epsilon(1000000) != 0.01 {
		t.Errorf("eps floor = %v", e.Epsilon(1000000))
	}
	if e.Epsilon(100) >= e.Epsilon(0) {
		t.Error("epsilon did not decay")
	}
	// Constant when tau == 0.
	c := EpsGreedy{Eps: 0.3}
	if c.Epsilon(1e6) != 0.3 {
		t.Error("constant epsilon drifted")
	}
}

func TestEpsGreedySelectGreedyWhenEpsZero(t *testing.T) {
	e := EpsGreedy{Eps: 0}
	s := rng.New(1)
	q := []float64{1, 5, 3}
	for i := 0; i < 100; i++ {
		idx, explored := e.Select(q, 0, s)
		if idx != 1 || explored {
			t.Fatalf("greedy select returned %d explored=%v", idx, explored)
		}
	}
}

func TestEpsGreedyExplorationFraction(t *testing.T) {
	e := EpsGreedy{Eps: 0.25}
	s := rng.New(2)
	q := []float64{10, 0}
	exp := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if _, explored := e.Select(q, 0, s); explored {
			exp++
		}
	}
	if f := float64(exp) / n; math.Abs(f-0.25) > 0.01 {
		t.Errorf("exploration fraction %v, want 0.25", f)
	}
}

func TestArgmaxRandomTieBreak(t *testing.T) {
	s := rng.New(3)
	q := []float64{1, 1, 0}
	counts := [3]int{}
	for i := 0; i < 10000; i++ {
		counts[argmax(q, positions(len(q)), s)]++
	}
	if counts[2] != 0 {
		t.Error("argmax picked a non-maximal action")
	}
	if counts[0] < 4000 || counts[1] < 4000 {
		t.Errorf("tie-break skewed: %v", counts)
	}
}

func TestBoltzmannPrefersHigherQ(t *testing.T) {
	b := Boltzmann{Temp: 1}
	s := rng.New(4)
	q := []float64{0, 2}
	hi := 0
	const n = 100000
	for i := 0; i < n; i++ {
		idx, _ := b.Select(q, 0, s)
		if idx == 1 {
			hi++
		}
	}
	// P(hi) = e^2/(1+e^2) ≈ 0.881.
	want := math.Exp(2) / (1 + math.Exp(2))
	if f := float64(hi) / n; math.Abs(f-want) > 0.01 {
		t.Errorf("boltzmann P(hi) = %v, want %v", f, want)
	}
}

func TestBoltzmannZeroTempIsGreedy(t *testing.T) {
	b := Boltzmann{Temp: 0}
	s := rng.New(5)
	q := []float64{0, 3, 1}
	for i := 0; i < 50; i++ {
		idx, explored := b.Select(q, 0, s)
		if idx != 1 || explored {
			t.Fatalf("zero-temp boltzmann returned %d explored=%v", idx, explored)
		}
	}
}

// twoStateQStar: deterministic 2-state MDP with known Q*.
// State 0: action 0 -> state 0, reward 0; action 1 -> state 1, reward 1.
// State 1: action 0 -> state 1, reward 2; action 1 -> state 0, reward 0.
// γ = 0.5. Optimal: from 0 go to 1, in 1 stay.
// Q*(1,0) = 2 + 0.5·Q*(1,0) -> 4. Q*(0,1) = 1 + 0.5·4 = 3.
// Q*(1,1) = 0 + 0.5·Q*(0,·)max = 0.5·3 = 1.5. Q*(0,0) = 0 + 0.5·3 = 1.5.
type toyEnv struct{ state int }

func (e *toyEnv) step(action int) (reward float64, next int) {
	switch {
	case e.state == 0 && action == 0:
		return 0, 0
	case e.state == 0 && action == 1:
		return 1, 1
	case e.state == 1 && action == 0:
		return 2, 1
	default:
		return 0, 0
	}
}

func runToy(t *testing.T, cfg Config, steps int, seed uint64) *Agent {
	t.Helper()
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(seed)
	env := &toyEnv{}
	legal := []int{0, 1}
	for i := 0; i < steps; i++ {
		st := env.state
		act, _ := agent.SelectAction(st, legal, s)
		r, next := env.step(act)
		env.state = next
		if cfg.Rule == SARSA {
			// Delayed: emulate by immediately selecting next action
			// deterministically for the update (greedy SARSA approx in
			// test harness: select then step loop keeps it on-policy).
			nextAct, _ := agent.SelectAction(next, legal, s)
			agent.UpdateSARSA(st, act, r, next, nextAct, 1)
			// Take the chosen action next iteration: rewind env by
			// setting a pending action is complex; instead accept the
			// extra selection — SARSA convergence in expectation still
			// holds for this smoke test.
			agent.stepBack()
			continue
		}
		agent.Update(st, act, r, next, legal, 1, s)
	}
	return agent
}

// stepBack undoes the extra SelectAction the SARSA test harness performs.
func (a *Agent) stepBack() { a.step-- }

func TestWatkinsConvergesToQStar(t *testing.T) {
	cfg := Config{
		NumStates: 2, NumActions: 2, Gamma: 0.5,
		Alpha:   Polynomial{Scale: 1, Omega: 0.7},
		Explore: EpsGreedy{Eps: 0.3},
	}
	agent := runToy(t, cfg, 200000, 7)
	want := map[[2]int]float64{
		{0, 0}: 1.5, {0, 1}: 3, {1, 0}: 4, {1, 1}: 1.5,
	}
	for k, w := range want {
		if got := agent.Q(k[0], k[1]); math.Abs(got-w) > 0.05 {
			t.Errorf("Q(%d,%d) = %v, want %v", k[0], k[1], got, w)
		}
	}
	if agent.Greedy(0, []int{0, 1}) != 1 || agent.Greedy(1, []int{0, 1}) != 0 {
		t.Error("greedy policy not optimal")
	}
}

func TestDoubleQConvergesToQStar(t *testing.T) {
	cfg := Config{
		NumStates: 2, NumActions: 2, Gamma: 0.5,
		Alpha:   Polynomial{Scale: 1, Omega: 0.7},
		Explore: EpsGreedy{Eps: 0.3},
		Rule:    DoubleQ,
	}
	agent := runToy(t, cfg, 300000, 8)
	if got := agent.Q(1, 0); math.Abs(got-4) > 0.1 {
		t.Errorf("double-Q Q(1,0) = %v, want 4", got)
	}
	if agent.Greedy(0, []int{0, 1}) != 1 {
		t.Error("double-Q greedy policy not optimal")
	}
}

func TestSARSAWithLowExplorationApproachesQStar(t *testing.T) {
	cfg := Config{
		NumStates: 2, NumActions: 2, Gamma: 0.5,
		Alpha:   Polynomial{Scale: 1, Omega: 0.7},
		Explore: EpsGreedy{Eps: 0.5, MinEps: 0.01, DecayTau: 20000},
		Rule:    SARSA,
	}
	agent := runToy(t, cfg, 300000, 9)
	// With ε → 0.01, SARSA's fixed point is within a whisker of Q*.
	if got := agent.Q(1, 0); math.Abs(got-4) > 0.25 {
		t.Errorf("SARSA Q(1,0) = %v, want ≈4", got)
	}
	if agent.Greedy(1, []int{0, 1}) != 0 {
		t.Error("SARSA greedy policy not optimal in state 1")
	}
}

func TestTracesAccelerateSparseReward(t *testing.T) {
	// Chain MDP: states 0..4, action 0 moves right, reward 1 only on
	// reaching state 4 (then reset to 0). With traces, credit flows back
	// along the chain in far fewer episodes.
	run := func(lambda float64, steps int) float64 {
		cfg := Config{
			NumStates: 5, NumActions: 1, Gamma: 0.9,
			Alpha:       Constant{C: 0.2},
			Explore:     EpsGreedy{Eps: 0},
			TraceLambda: lambda,
		}
		agent, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := rng.New(10)
		state := 0
		legal := []int{0}
		for i := 0; i < steps; i++ {
			act, _ := agent.SelectAction(state, legal, s)
			var r float64
			next := state + 1
			if next == 4 {
				r, next = 1, 0
			}
			agent.Update(state, act, r, next, legal, 1, s)
			state = next
		}
		return agent.Q(0, 0)
	}
	const steps = 60
	without := run(0, steps)
	with := run(0.9, steps)
	if with <= without {
		t.Errorf("traces did not accelerate: Q(0,0) with=%v without=%v", with, without)
	}
}

func TestSMDPElapsedDiscount(t *testing.T) {
	// A 3-slot transition must discount the bootstrap by γ³.
	cfg := Config{
		NumStates: 2, NumActions: 1, Gamma: 0.5,
		Alpha:   Constant{C: 1}, // full overwrite for exactness
		Explore: EpsGreedy{Eps: 0},
	}
	agent, _ := NewAgent(cfg)
	agent.SetQ(1, 0, 8)
	s := rng.New(11)
	agent.Update(0, 0, 2, 1, []int{0}, 3, s)
	// target = 2 + 0.5³·8 = 3.
	if got := agent.Q(0, 0); math.Abs(got-3) > 1e-12 {
		t.Errorf("SMDP update gave %v, want 3", got)
	}
}

func TestUpdateSARSAOnWrongRulePanics(t *testing.T) {
	agent, _ := NewAgent(defaultCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateSARSA on Watkins agent did not panic")
		}
	}()
	agent.UpdateSARSA(0, 0, 0, 0, 0, 1)
}

func TestSelectActionEmptyLegalPanics(t *testing.T) {
	agent, _ := NewAgent(defaultCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("empty legal set did not panic")
		}
	}()
	agent.SelectAction(0, nil, rng.New(1))
}

func TestOptimisticInit(t *testing.T) {
	cfg := defaultCfg()
	cfg.InitQ = 5
	agent, _ := NewAgent(cfg)
	if agent.Q(3, 1) != 5 {
		t.Errorf("InitQ not applied: %v", agent.Q(3, 1))
	}
}

func TestBytesFootprint(t *testing.T) {
	cfg := defaultCfg() // 4 states × 2 actions
	agent, _ := NewAgent(cfg)
	if b := agent.Bytes(); b != 4*2*8*2 { // q + visits
		t.Errorf("Bytes = %d, want 128", b)
	}
	memo := cfg // a varying rate and a decaying ε each own a 4096-entry memo
	memo.Alpha, memo.Explore = Polynomial{Scale: 0.5, Omega: 0.65}, EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000}
	if agent3, _ := NewAgent(memo); agent3.Bytes() != 4*2*8*2+65536 {
		t.Errorf("memoized Bytes = %d, want %d", agent3.Bytes(), 4*2*8*2+65536)
	}
	cfg.Rule = DoubleQ
	agent2, _ := NewAgent(cfg)
	if agent2.Bytes() <= agent.Bytes() {
		t.Error("DoubleQ footprint not larger")
	}
}

func TestVisitsAndUpdatesCounters(t *testing.T) {
	agent, _ := NewAgent(defaultCfg())
	s := rng.New(12)
	agent.Update(1, 0, 1, 2, []int{0, 1}, 1, s)
	agent.Update(1, 0, 1, 2, []int{0, 1}, 1, s)
	if agent.Visits(1, 0) != 2 {
		t.Errorf("visits %d, want 2", agent.Visits(1, 0))
	}
	if agent.Updates() != 2 {
		t.Errorf("updates %d, want 2", agent.Updates())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	mk := func() *Agent {
		return runToy(t, Config{
			NumStates: 2, NumActions: 2, Gamma: 0.5,
			Alpha:   Constant{C: 0.1},
			Explore: EpsGreedy{Eps: 0.2},
		}, 5000, 99)
	}
	a, b := mk(), mk()
	for s := 0; s < 2; s++ {
		for act := 0; act < 2; act++ {
			if a.Q(s, act) != b.Q(s, act) {
				t.Fatal("identical seeds produced different tables")
			}
		}
	}
}

// stepConfig is an exploration strategy and learning-rate schedule pair.
type stepConfig struct {
	name    string
	explore Explorer
	alpha   Schedule
}

// stepConfigs are the two learners the fleet and the paper's workloads
// run: the tracking learner (constant ε and α; experiment's
// QDPMTrackingFactory) and the decaying one (ε decaying to a floor,
// polynomial α; the fleet's default mix).
var stepConfigs = []stepConfig{
	{"tracking", EpsGreedy{Eps: 0.08}, Constant{C: 0.25}},
	{"decaying", EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000}, Polynomial{Scale: 0.5, Omega: 0.65}},
}

func BenchmarkQStep(b *testing.B) {
	// One decision + one update: the paper's entire per-interval runtime.
	for _, c := range stepConfigs {
		b.Run(c.name, func(b *testing.B) {
			agent, err := NewAgent(Config{
				NumStates: 99, NumActions: 3, Gamma: 0.95,
				Alpha: c.alpha, Explore: c.explore,
			})
			if err != nil {
				b.Fatal(err)
			}
			s := rng.New(1)
			legal := []int{0, 1, 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := i % 99
				act, _ := agent.SelectAction(st, legal, s)
				agent.Update(st, act, -0.5, (st+1)%99, legal, 1, s)
			}
		})
	}
}

// TestAgentStepAllocationFree: once the scratch is sized, a decision
// plus an update allocates nothing, for both resolved ε-greedy learners
// and for Boltzmann, which selects through the scratch copy.
func TestAgentStepAllocationFree(t *testing.T) {
	cases := append(stepConfigs[:len(stepConfigs):len(stepConfigs)],
		stepConfig{"boltzmann", Boltzmann{Temp: 0.5, MinTemp: 0.01, DecayTau: 30000}, Polynomial{Scale: 0.5, Omega: 0.65}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			agent, err := NewAgent(Config{
				NumStates: 99, NumActions: 3, Gamma: 0.95,
				Alpha: c.alpha, Explore: c.explore,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := rng.New(1)
			legal := []int{0, 1, 2}
			st := 0
			step := func() {
				act, _ := agent.SelectAction(st, legal, s)
				agent.Update(st, act, -0.5, (st+1)%99, legal, 1+st%2, s)
				st = (st + 1) % 99
			}
			step() // sizes the scratch
			if avg := testing.AllocsPerRun(1000, step); avg != 0 {
				t.Errorf("%s: %.2f allocs per SelectAction+Update, want 0", c.explore, avg)
			}
		})
	}
}

// opaqueExplorer and opaqueSchedule hide their concrete types from
// NewAgent, so it cannot resolve them: the agent selects through
// Explorer.Select on a scratch copy of the legal Q values and reads α
// through the schedule memo.
type (
	opaqueExplorer struct{ Explorer }
	opaqueSchedule struct{ Schedule }
)

// refEpsGreedy restates ε-greedy selection independently of the package's
// argmax: the explore/exploit coin first (stream.Float64 < ε(step)), then
// a uniform index, or the first maximum with values within 1e-12 tying
// and each tie drawing Intn(ties) reservoir-style.
type refEpsGreedy struct{ EpsGreedy }

func (r refEpsGreedy) Select(qvals []float64, step int64, stream *rng.Stream) (int, bool) {
	if stream.Float64() < r.Epsilon(step) {
		return stream.Intn(len(qvals)), true
	}
	best, idx, ties := qvals[0], 0, 1
	for i := 1; i < len(qvals); i++ {
		if q := qvals[i]; q > best+1e-12 {
			best, idx, ties = q, i, 1
		} else if q > best-1e-12 {
			ties++
			if stream.Intn(ties) == 0 {
				idx = i
			}
		}
	}
	return idx, false
}

// equivTrace is everything an agent's run exposes: each selection, the
// final tables and counters, and the stream's next draw.
type equivTrace struct {
	actions        []int
	explored       []bool
	q, q2          []float64
	visits         []int64
	steps, updates int64
	nextDraw       uint64
}

// runEquiv drives an agent through a 6-state chain whose legal sets have
// 3, 1, 2 (given out of order) and 2 actions, with multi-slot transitions
// and, every 64 steps, near-ties written into the row about to be read.
func runEquiv(t *testing.T, cfg Config, steps int) equivTrace {
	t.Helper()
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	legalSets := [][]int{{0, 1, 2}, {1}, {2, 0}, {0, 1}, {0, 1, 2}, {2, 0}}
	stream := rng.New(17)
	var tr equivTrace
	sel := func(s int) int {
		act, explored := agent.SelectAction(s, legalSets[s], stream)
		tr.actions = append(tr.actions, act)
		tr.explored = append(tr.explored, explored)
		return act
	}
	s := 0
	act := sel(s)
	for i := 0; i < steps; i++ {
		next := (s*5 + act*7 + i%4) % len(legalSets)
		if i%64 == 0 {
			// Straddle the tie tolerance at next: offsets of 0 and 4e-13
			// tie (within 1e-12), 4e-11 does not.
			base := agent.Q(next, legalSets[next][0])
			for j, a := range legalSets[next] {
				agent.SetQ(next, a, base+[]float64{0, 4e-13, 4e-11}[j])
			}
		}
		reward := -float64((s+act)%3) / 2 // few distinct values: ties persist
		elapsed := 1 + i%3
		if cfg.Rule == SARSA {
			nextAct := sel(next)
			agent.UpdateSARSA(s, act, reward, next, nextAct, elapsed)
			act = nextAct
		} else {
			agent.Update(s, act, reward, next, legalSets[next], elapsed, stream)
			act = sel(next)
		}
		s = next
	}
	tr.q = append([]float64(nil), agent.q...)
	tr.q2 = append([]float64(nil), agent.q2...)
	tr.visits = append([]int64(nil), agent.visits...)
	tr.steps, tr.updates = agent.Step(), agent.Updates()
	tr.nextDraw = stream.Uint64()
	return tr
}

// TestResolvedSelectionMatchesGeneric: the ε-greedy learner NewAgent
// resolves (in-place selection off the Q row, ε and Constant α resolved
// once) behaves bit for bit like the same explorer and schedule behind
// opaque wrappers, and like an independent restatement of ε-greedy — on
// constant and decaying ε (past the memo), every schedule and rule,
// traces, zero and nonzero InitQ, and legal sets of 1, 2 and 3 actions.
func TestResolvedSelectionMatchesGeneric(t *testing.T) {
	const steps = epsMemoSize + 2000
	explorers := []EpsGreedy{{Eps: 0.2}, {Eps: 0.5, MinEps: 0.02, DecayTau: 1500}}
	schedules := []Schedule{Constant{C: 0.3}, Harmonic{Scale: 1}, Polynomial{Scale: 0.5, Omega: 0.65}}
	rules := []struct {
		name   string
		rule   Rule
		lambda float64
	}{{"watkins", Watkins, 0}, {"sarsa", SARSA, 0}, {"double", DoubleQ, 0}, {"traces", Watkins, 0.6}}
	for _, e := range explorers {
		for _, sched := range schedules {
			for _, r := range rules {
				for _, initQ := range []float64{0, 0.75} {
					name := fmt.Sprintf("%s/%s/%s/init=%g", e, sched, r.name, initQ)
					cfg := Config{NumStates: 6, NumActions: 3, Gamma: 0.9, Alpha: sched, Explore: e,
						Rule: r.rule, TraceLambda: r.lambda, InitQ: initQ}
					resolved := runEquiv(t, cfg, steps)
					cfg.Alpha = opaqueSchedule{sched}
					cfg.Explore = opaqueExplorer{e}
					opaque := runEquiv(t, cfg, steps)
					cfg.Explore = refEpsGreedy{e}
					ref := runEquiv(t, cfg, steps)
					for _, other := range []struct {
						name string
						tr   equivTrace
					}{{"opaque", opaque}, {"reference", ref}} {
						if err := diffTraces(resolved, other.tr); err != "" {
							t.Errorf("%s: resolved vs %s: %s", name, other.name, err)
						}
					}
				}
			}
		}
	}
}

// diffTraces names the first difference between two runs, or "".
func diffTraces(a, b equivTrace) string {
	for i := range a.actions {
		if i >= len(b.actions) || a.actions[i] != b.actions[i] || a.explored[i] != b.explored[i] {
			return fmt.Sprintf("selection %d differs", i)
		}
	}
	if len(a.actions) != len(b.actions) {
		return "selection counts differ"
	}
	bits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case !bits(a.q, b.q) || !bits(a.q2, b.q2):
		return "Q tables differ"
	case fmt.Sprint(a.visits) != fmt.Sprint(b.visits):
		return "visit counts differ"
	case a.steps != b.steps || a.updates != b.updates:
		return fmt.Sprintf("Step/Updates %d/%d vs %d/%d", a.steps, a.updates, b.steps, b.updates)
	case a.nextDraw != b.nextDraw:
		return "stream positions differ"
	}
	return ""
}

// TestResetBitIdenticalToFresh: after a learning episode, Reset restores
// the agent so a second episode replays bit-identically to a fresh
// agent's first — and allocates nothing.
func TestResetBitIdenticalToFresh(t *testing.T) {
	for _, cfg := range []Config{
		{NumStates: 4, NumActions: 3, Gamma: 0.9, Alpha: Constant{C: 0.1},
			Explore: EpsGreedy{Eps: 0.2}, InitQ: 0.5},
		{NumStates: 4, NumActions: 3, Gamma: 0.9, Alpha: Constant{C: 0.1},
			Explore: EpsGreedy{Eps: 0.2}, Rule: DoubleQ},
		{NumStates: 4, NumActions: 3, Gamma: 0.9, Alpha: Constant{C: 0.1},
			Explore: EpsGreedy{Eps: 0.2}, TraceLambda: 0.5},
	} {
		reused, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		legal := []int{0, 1, 2}
		episode := func(a *Agent, seed uint64) {
			stream := rng.New(seed)
			s := 0
			for i := 0; i < 2000; i++ {
				act, _ := a.SelectAction(s, legal, stream)
				next := (s + act + 1) % cfg.NumStates
				a.Update(s, act, -float64(act), next, legal, 1+i%3, stream)
				s = next
			}
		}
		episode(reused, 7) // dirty every counter and table cell
		allocs := testing.AllocsPerRun(1, func() { reused.Reset() })
		if allocs != 0 {
			t.Fatalf("rule %v: Reset allocates %.1f times", cfg.Rule, allocs)
		}
		episode(reused, 11)
		fresh, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		episode(fresh, 11)
		for s := 0; s < cfg.NumStates; s++ {
			for act := 0; act < cfg.NumActions; act++ {
				if reused.Q(s, act) != fresh.Q(s, act) {
					t.Fatalf("rule %v: reset agent Q(%d,%d)=%v != fresh %v",
						cfg.Rule, s, act, reused.Q(s, act), fresh.Q(s, act))
				}
				if reused.Visits(s, act) != fresh.Visits(s, act) {
					t.Fatalf("rule %v: visit counters diverge at (%d,%d)", cfg.Rule, s, act)
				}
			}
		}
		if reused.Step() != fresh.Step() || reused.Updates() != fresh.Updates() {
			t.Fatalf("rule %v: counters diverge: step %d/%d updates %d/%d",
				cfg.Rule, reused.Step(), fresh.Step(), reused.Updates(), fresh.Updates())
		}
	}
}
