// Package qlearn implements tabular Q-learning — the algorithmic core of
// Q-DPM — together with the standard variations the ablation studies
// exercise: Watkins Q-learning, SARSA, double Q-learning, eligibility
// traces (Watkins Q(λ)), ε-greedy and Boltzmann exploration, and
// constant/harmonic/polynomial learning-rate schedules.
//
// The agent is domain-agnostic: states and actions are small integers.
// internal/core maps power-management observations onto this table. The
// per-step work is one argmax over the legal actions plus one table update
// (Eqn. 3 of the paper), and the memory footprint is the |S|×|A| float64
// table — the two properties the paper's efficiency argument rests on.
//
// NewAgent resolves an EpsGreedy explorer and a Constant learning rate
// once: the agent then draws ε-greedy straight off the Q-table row, with a
// decaying ε(t) read from a step-indexed memo the agent owns, and reads α
// without a schedule call. Any other Explorer or Schedule is called
// through its interface.
package qlearn

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Schedule yields the learning rate for the n-th visit of a state-action
// pair (n >= 1).
type Schedule interface {
	// Alpha returns the learning rate for visit n.
	Alpha(n int64) float64
	// String describes the schedule.
	String() string
}

// Constant is a fixed learning rate; the paper's choice for nonstationary
// tracking (a constant rate never stops adapting).
type Constant struct{ C float64 }

// Alpha returns C.
func (s Constant) Alpha(int64) float64 { return s.C }
func (s Constant) String() string      { return fmt.Sprintf("const(%g)", s.C) }

// Harmonic is α(n) = Scale/n; classical convergence schedule for
// stationary problems.
type Harmonic struct{ Scale float64 }

// Alpha returns Scale/n.
func (s Harmonic) Alpha(n int64) float64 { return s.Scale / float64(n) }
func (s Harmonic) String() string        { return fmt.Sprintf("harmonic(%g)", s.Scale) }

// Polynomial is α(n) = Scale/n^Omega with Omega in (0.5, 1]; the standard
// compromise between adaptation speed and convergence.
type Polynomial struct {
	Scale float64
	Omega float64
}

// Alpha returns Scale/n^Omega.
func (s Polynomial) Alpha(n int64) float64 { return s.Scale / math.Pow(float64(n), s.Omega) }
func (s Polynomial) String() string        { return fmt.Sprintf("poly(%g,ω=%g)", s.Scale, s.Omega) }

// validateSchedule rejects schedules whose first-visit rate lies outside
// (0,1]. The built-in schedules are nonincreasing in n once their
// parameters are valid (a Polynomial needs a finite Omega >= 0), so for
// them α(1) bounds every visit; a caller's own Schedule is probed at n = 1
// only.
func validateSchedule(s Schedule) error {
	if s == nil {
		return fmt.Errorf("qlearn: nil schedule")
	}
	if p, ok := s.(Polynomial); ok && !(p.Omega >= 0 && p.Omega <= math.MaxFloat64) {
		return fmt.Errorf("qlearn: schedule %s needs a finite exponent ω >= 0", s)
	}
	a := s.Alpha(1)
	if !(a > 0) || a > 1 {
		return fmt.Errorf("qlearn: schedule %s yields first-visit rate %v outside (0,1]", s, a)
	}
	return nil
}

// validateExplorer rejects built-in explorers whose parameters are not
// rates (ε outside [0,1]) or temperatures (non-finite, or a negative
// floor), or whose decay constant is NaN.
func validateExplorer(e Explorer) error {
	switch e := e.(type) {
	case nil:
		return fmt.Errorf("qlearn: nil explorer")
	case EpsGreedy:
		if !(e.Eps >= 0 && e.Eps <= 1) || !(e.MinEps >= 0 && e.MinEps <= 1) || math.IsNaN(e.DecayTau) {
			return fmt.Errorf("qlearn: explorer %s needs ε and its floor in [0,1] and a non-NaN τ", e)
		}
	case Boltzmann:
		if math.IsNaN(e.Temp) || math.IsInf(e.Temp, 0) || !(e.MinTemp >= 0 && e.MinTemp <= math.MaxFloat64) ||
			math.IsNaN(e.DecayTau) {
			return fmt.Errorf("qlearn: explorer %s needs a finite T, a finite floor >= 0 and a non-NaN τ", e)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Exploration

// Explorer chooses among the legal actions given their Q-values. It
// returns an index into the qvals slice and whether the choice was
// exploratory (non-greedy), which Watkins Q(λ) needs to cut traces.
type Explorer interface {
	Select(qvals []float64, step int64, stream *rng.Stream) (idx int, explored bool)
	String() string
}

// EpsGreedy explores uniformly with probability ε(t) = max(MinEps,
// Eps·exp(−t/DecayTau)) (constant ε when DecayTau <= 0). An Agent does
// not call Select: NewAgent resolves the rate once — a constant, or for a
// decaying ε a step-indexed memo owned by the agent — and draws the same
// ε-greedy choice in place off its Q-table row.
type EpsGreedy struct {
	Eps      float64
	MinEps   float64
	DecayTau float64
}

// Epsilon returns the exploration probability at step t.
func (e EpsGreedy) Epsilon(t int64) float64 {
	if e.DecayTau <= 0 {
		return e.Eps
	}
	eps := e.Eps * math.Exp(-float64(t)/e.DecayTau)
	if eps < e.MinEps {
		eps = e.MinEps
	}
	return eps
}

// Select implements Explorer: the explore/exploit coin first, then a
// uniform index or the tie-breaking argmax — the draw order
// Agent.SelectAction keeps when it resolves an EpsGreedy.
func (e EpsGreedy) Select(qvals []float64, step int64, stream *rng.Stream) (int, bool) {
	if stream.Float64() < e.Epsilon(step) {
		return stream.Intn(len(qvals)), true
	}
	return argmax(qvals, positions(len(qvals)), stream), false
}

func (e EpsGreedy) String() string {
	return fmt.Sprintf("eps-greedy(ε=%g,min=%g,τ=%g)", e.Eps, e.MinEps, e.DecayTau)
}

// Boltzmann samples actions with probability ∝ exp(Q/T), T decaying like
// EpsGreedy's ε.
type Boltzmann struct {
	Temp     float64
	MinTemp  float64
	DecayTau float64
}

func (b Boltzmann) temperature(t int64) float64 {
	if b.DecayTau <= 0 {
		return b.Temp
	}
	temp := b.Temp * math.Exp(-float64(t)/b.DecayTau)
	if temp < b.MinTemp {
		temp = b.MinTemp
	}
	return temp
}

// Select implements Explorer.
func (b Boltzmann) Select(qvals []float64, step int64, stream *rng.Stream) (int, bool) {
	temp := b.temperature(step)
	if temp <= 0 {
		return argmax(qvals, positions(len(qvals)), stream), false
	}
	// Softmax with max-shift for stability. The weights are recomputed in
	// the selection pass rather than stored so the per-decision hot path
	// allocates nothing; exp is deterministic, so both passes agree.
	mx := qvals[0]
	for _, q := range qvals[1:] {
		if q > mx {
			mx = q
		}
	}
	total := 0.0
	for _, q := range qvals {
		total += math.Exp((q - mx) / temp)
	}
	u := stream.Float64() * total
	acc := 0.0
	choice := len(qvals) - 1
	for i, q := range qvals {
		acc += math.Exp((q - mx) / temp)
		if u < acc {
			choice = i
			break
		}
	}
	return choice, choice != argmaxDet(qvals)
}

func (b Boltzmann) String() string {
	return fmt.Sprintf("boltzmann(T=%g,min=%g,τ=%g)", b.Temp, b.MinTemp, b.DecayTau)
}

// argmax returns the position i in legal that maximizes row[legal[i]].
// Values within 1e-12 of the running best tie, and ties are broken
// uniformly at random (reservoir sampling, one Intn per tie) so symmetric
// initial tables do not lock onto the first action.
func argmax(row []float64, legal []int, stream *rng.Stream) int {
	best, idx, ties := row[legal[0]], 0, 1
	for i := 1; i < len(legal); i++ {
		switch q := row[legal[i]]; {
		case q > best+1e-12:
			best, idx, ties = q, i, 1
		case q > best-1e-12:
			ties++
			if stream.Intn(ties) == 0 {
				idx = i
			}
		}
	}
	return idx
}

// identity holds 0, 1, 2, …: its prefixes index a dense slice of Q values,
// so the Explorer methods and DoubleQ's averaged values reach argmax
// without building an index slice.
var identity = func() (p [64]int) {
	for i := range p {
		p[i] = i
	}
	return p
}()

// positions returns the indices 0..n-1 — a prefix of identity, or a fresh
// slice for more candidates than any action set it was sized for.
func positions(n int) []int {
	if n <= len(identity) {
		return identity[:n]
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// argmaxDet is the deterministic first-max, used only to classify a
// Boltzmann draw as exploratory.
func argmaxDet(qvals []float64) int {
	idx := 0
	for i, q := range qvals {
		if q > qvals[idx] {
			idx = i
		}
	}
	return idx
}

// ---------------------------------------------------------------------------
// Agent

// Rule selects the update target.
type Rule int

// Update rules.
const (
	// Watkins is standard Q-learning: target r + γ^k · max_b Q(s', b).
	Watkins Rule = iota
	// SARSA is on-policy: target r + γ^k · Q(s', a') with a' the action
	// actually taken next (supply it via UpdateSARSA).
	SARSA
	// DoubleQ keeps two tables and decouples argmax from evaluation,
	// correcting Watkins' overestimation bias.
	DoubleQ
)

func (r Rule) String() string {
	switch r {
	case Watkins:
		return "watkins"
	case SARSA:
		return "sarsa"
	case DoubleQ:
		return "double-q"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Config assembles an agent.
type Config struct {
	// NumStates and NumActions size the table.
	NumStates, NumActions int
	// Gamma is the discount factor in (0,1).
	Gamma float64
	// Alpha is the learning-rate schedule.
	Alpha Schedule
	// Explore is the exploration strategy.
	Explore Explorer
	// Rule selects Watkins, SARSA, or DoubleQ.
	Rule Rule
	// InitQ is the initial table value. Optimistic initialization
	// (higher than any reachable return) accelerates exploration.
	InitQ float64
	// TraceLambda enables Watkins Q(λ) eligibility traces when > 0
	// (Watkins rule only). Traces are replacing and are cut on
	// exploratory actions.
	TraceLambda float64
	// TraceCutoff drops trace entries below this weight (default 1e-4).
	TraceCutoff float64
}

// Agent is a tabular Q-learner. Not safe for concurrent use.
type Agent struct {
	cfg    Config
	q      []float64 // primary table
	q2     []float64 // second table (DoubleQ only)
	visits []int64
	step   int64

	traces map[int32]float64 // state*nA+action -> eligibility

	updates int64

	// scratch holds the legal-action Q values when SelectAction cannot
	// read them in place: for an explorer other than EpsGreedy, and for
	// DoubleQ's averaged table. One selection runs per simulated slot, so
	// this buffer keeps the decision hot path allocation-free.
	scratch []float64

	// epsGreedy marks an EpsGreedy explorer (eps), which SelectAction
	// draws in place off the Q row. A decaying one caches ε(t) for small
	// steps in epsMemo: ε is a pure function of the step, so the memo is
	// value-exact, and it replaces the per-decision math.Exp with a table
	// load for the first epsMemoSize steps (short fleet episodes never
	// leave it). Constant ε (DecayTau <= 0) needs no memo.
	epsGreedy bool
	eps       EpsGreedy
	epsMemo   []float64

	// alphaC is the rate of a Constant schedule. Any other schedule varies
	// with n, and alphaMemo caches Alpha(n) for small visit counts —
	// value-exact for the same reason, turning the per-update math.Pow of
	// the Polynomial schedule into a table load. Both memos are allocated
	// once at construction, so the hot path stays allocation-free.
	alphaC    float64
	alphaMemo []float64

	// touched journals the table indices written since the last Reset
	// (duplicates allowed), so Reset restores only those entries instead
	// of sweeping the whole table — a fleet instance touches a handful
	// of pairs while the table holds hundreds. Once the journal reaches
	// the sweep break-even it stops recording (dirtyAll) and Reset falls
	// back to the full clear.
	touched  []int32
	dirtyAll bool
}

// alphaMemoSize and epsMemoSize bound the memos: visit counts and steps
// beyond them (rare pairs, very long runs) fall back to the schedule.
// Index 0 of alphaMemo is unused (visit counts start at 1).
const (
	alphaMemoSize = 4096
	epsMemoSize   = 4096
)

// newMemo returns a memo of n unfilled entries. Rates are >= 0, so -1
// marks an entry not yet computed.
func newMemo(n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

// alpha returns the learning rate for visit n. Kept small enough to
// inline, so a Constant rate costs one load.
func (a *Agent) alpha(n int64) float64 {
	if a.alphaMemo == nil {
		return a.alphaC
	}
	return a.alphaAt(n)
}

// alphaAt returns a varying schedule's rate for visit n, memoized.
func (a *Agent) alphaAt(n int64) float64 {
	if n < alphaMemoSize {
		if v := a.alphaMemo[n]; v >= 0 {
			return v
		}
		v := a.cfg.Alpha.Alpha(n)
		a.alphaMemo[n] = v
		return v
	}
	return a.cfg.Alpha.Alpha(n)
}

// epsilon returns ε at step t for an EpsGreedy explorer; like alpha it
// inlines, so a constant ε costs one load.
func (a *Agent) epsilon(t int64) float64 {
	if a.epsMemo == nil {
		return a.eps.Eps
	}
	return a.epsilonAt(t)
}

// epsilonAt returns a decaying ε at step t, memoized.
func (a *Agent) epsilonAt(t int64) float64 {
	if t < epsMemoSize {
		if v := a.epsMemo[t]; v >= 0 {
			return v
		}
		v := a.eps.Epsilon(t)
		a.epsMemo[t] = v
		return v
	}
	return a.eps.Epsilon(t)
}

// NewAgent validates the configuration and returns a zeroed agent.
func NewAgent(cfg Config) (*Agent, error) {
	if cfg.NumStates <= 0 || cfg.NumActions <= 0 {
		return nil, fmt.Errorf("qlearn: table dimensions %dx%d must be positive", cfg.NumStates, cfg.NumActions)
	}
	if !(cfg.Gamma > 0) || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("qlearn: discount %v out of (0,1)", cfg.Gamma)
	}
	if err := validateSchedule(cfg.Alpha); err != nil {
		return nil, err
	}
	if err := validateExplorer(cfg.Explore); err != nil {
		return nil, err
	}
	if cfg.TraceLambda < 0 || cfg.TraceLambda >= 1 {
		return nil, fmt.Errorf("qlearn: trace lambda %v out of [0,1)", cfg.TraceLambda)
	}
	if cfg.TraceLambda > 0 && cfg.Rule != Watkins {
		return nil, fmt.Errorf("qlearn: eligibility traces require the Watkins rule")
	}
	if cfg.TraceCutoff == 0 {
		cfg.TraceCutoff = 1e-4
	}
	n := cfg.NumStates * cfg.NumActions
	a := &Agent{cfg: cfg, q: make([]float64, n), visits: make([]int64, n)}
	if eg, ok := cfg.Explore.(EpsGreedy); ok {
		a.epsGreedy, a.eps = true, eg
		if eg.DecayTau > 0 {
			a.epsMemo = newMemo(epsMemoSize)
		}
	}
	if c, ok := cfg.Alpha.(Constant); ok {
		a.alphaC = c.C
	} else {
		a.alphaMemo = newMemo(alphaMemoSize)
	}
	for i := range a.q {
		a.q[i] = cfg.InitQ
	}
	if cfg.Rule == DoubleQ {
		a.q2 = make([]float64, n)
		for i := range a.q2 {
			a.q2[i] = cfg.InitQ
		}
	}
	if cfg.TraceLambda > 0 {
		a.traces = make(map[int32]float64)
	}
	return a, nil
}

// Reset restores the agent to its freshly-constructed state — tables at
// InitQ, visit/step/update counters zeroed, traces cleared — reusing
// every buffer. A Reset agent is behaviorally bit-identical to
// NewAgent(cfg); callers that cycle one agent through many independent
// episodes (one fleet instance per episode) use it to keep learner
// turnover off the allocator.
func (a *Agent) Reset() {
	if a.dirtyAll {
		for i := range a.q {
			a.q[i] = a.cfg.InitQ
		}
		if a.q2 != nil {
			for i := range a.q2 {
				a.q2[i] = a.cfg.InitQ
			}
		}
		for i := range a.visits {
			a.visits[i] = 0
		}
	} else {
		// Short episodes touch a handful of pairs; restoring just those
		// yields the same table as the full sweep (every untouched entry
		// still holds InitQ / zero visits).
		for _, i := range a.touched {
			a.q[i] = a.cfg.InitQ
			if a.q2 != nil {
				a.q2[i] = a.cfg.InitQ
			}
			a.visits[i] = 0
		}
	}
	a.touched = a.touched[:0]
	a.dirtyAll = false
	a.step = 0
	a.updates = 0
	if a.traces != nil {
		clear(a.traces)
	}
}

func (a *Agent) idx(s, act int) int { return s*a.cfg.NumActions + act }

// mark journals a table write for journaled Reset. Past the break-even
// point a full-table clear is cheaper than replaying the journal, so
// recording stops and dirtyAll routes Reset to the sweep.
func (a *Agent) mark(i int) {
	if a.dirtyAll {
		return
	}
	if len(a.touched) >= len(a.q)/4+16 {
		a.dirtyAll = true
		a.touched = a.touched[:0]
		return
	}
	a.touched = append(a.touched, int32(i))
}

// Q returns the current estimate for (s, act). For DoubleQ it returns the
// average of the two tables (the quantity used for action selection).
func (a *Agent) Q(s, act int) float64 {
	i := a.idx(s, act)
	if a.q2 != nil {
		return (a.q[i] + a.q2[i]) / 2
	}
	return a.q[i]
}

// SetQ overwrites the estimate; exported for fuzzy-aggregation updates and
// tests.
func (a *Agent) SetQ(s, act int, v float64) {
	i := a.idx(s, act)
	a.mark(i)
	a.q[i] = v
	if a.q2 != nil {
		a.q2[i] = v
	}
}

// Visits returns the visit count of (s, act).
func (a *Agent) Visits(s, act int) int64 { return a.visits[a.idx(s, act)] }

// Updates returns the total number of table updates performed.
func (a *Agent) Updates() int64 { return a.updates }

// Step returns the number of action selections made.
func (a *Agent) Step() int64 { return a.step }

// Bytes returns the approximate resident size of the learner state — the
// paper's "a little bit [of] memory space" claim, measured: the Q and
// visit tables plus the α and ε memos the agent owns (a constant rate
// and a constant ε need none).
func (a *Agent) Bytes() int {
	return 8 * (len(a.q) + len(a.q2) + len(a.visits) + len(a.alphaMemo) + len(a.epsMemo))
}

// MaxQ returns max over legal actions of Q(s, ·). It panics on an empty
// legal set (programming error).
func (a *Agent) MaxQ(s int, legal []int) float64 {
	best := math.Inf(-1)
	for _, act := range legal {
		if q := a.Q(s, act); q > best {
			best = q
		}
	}
	return best
}

// Greedy returns the deterministic greedy action among legal.
func (a *Agent) Greedy(s int, legal []int) int {
	best := legal[0]
	for _, act := range legal[1:] {
		if a.Q(s, act) > a.Q(s, best) {
			best = act
		}
	}
	return best
}

// SelectAction picks an action among legal using the exploration strategy
// and advances the step counter.
func (a *Agent) SelectAction(s int, legal []int, stream *rng.Stream) (action int, explored bool) {
	if len(legal) == 0 {
		panic("qlearn: SelectAction with no legal actions")
	}
	var idx int
	switch {
	case !a.epsGreedy:
		idx, explored = a.cfg.Explore.Select(a.legalQ(s, legal), a.step, stream)
	// ε-greedy in place, in EpsGreedy.Select's draw order: the coin, then
	// a uniform index or the argmax over Q(s, legal[i]).
	case stream.Float64() < a.epsilon(a.step):
		idx, explored = stream.Intn(len(legal)), true
	case a.q2 != nil: // DoubleQ selects on the average of its two tables
		qvals := a.legalQ(s, legal)
		idx = argmax(qvals, positions(len(qvals)), stream)
	default:
		idx = argmax(a.q[a.idx(s, 0):a.idx(s+1, 0)], legal, stream)
	}
	a.step++
	if explored && a.traces != nil {
		// Watkins Q(λ): exploratory actions invalidate the on-policy
		// trajectory; cut all traces.
		clear(a.traces)
	}
	return legal[idx], explored
}

// legalQ copies Q(s, a) for each legal action into the scratch buffer.
func (a *Agent) legalQ(s int, legal []int) []float64 {
	if cap(a.scratch) < len(legal) {
		a.scratch = make([]float64, len(legal))
	}
	qvals := a.scratch[:len(legal)]
	for i, act := range legal {
		qvals[i] = a.Q(s, act)
	}
	return qvals
}

// Update applies the Watkins/DoubleQ update for a transition that took
// `elapsed` slots (SMDP-style: the target discounts by γ^elapsed, so
// multi-slot device transitions are handled exactly). reward must already
// be the discounted sum of the per-slot rewards over those slots.
func (a *Agent) Update(s, act int, reward float64, next int, legalNext []int, elapsed int, stream *rng.Stream) {
	if elapsed < 1 {
		elapsed = 1
	}
	// One-slot transitions dominate every workload; Pow(γ, 1) is exactly
	// γ, so the fast path is value-identical and skips the pow.
	g := a.cfg.Gamma
	if elapsed > 1 {
		g = math.Pow(a.cfg.Gamma, float64(elapsed))
	}
	i := a.idx(s, act)
	a.mark(i)
	a.visits[i]++
	alpha := a.alpha(a.visits[i])
	a.updates++

	switch a.cfg.Rule {
	case DoubleQ:
		// Flip a coin: update one table using the other's evaluation.
		ta, tb := a.q, a.q2
		if stream.Bool(0.5) {
			ta, tb = a.q2, a.q
		}
		best := legalNext[0]
		for _, n2 := range legalNext[1:] {
			if ta[a.idx(next, n2)] > ta[a.idx(next, best)] {
				best = n2
			}
		}
		target := reward + g*tb[a.idx(next, best)]
		ta[i] += alpha * (target - ta[i])
	default: // Watkins
		target := reward + g*a.MaxQ(next, legalNext)
		delta := target - a.q[i]
		if a.traces == nil {
			a.q[i] += alpha * delta
			return
		}
		// Watkins Q(λ) with replacing traces.
		a.traces[int32(i)] = 1
		for k, e := range a.traces {
			a.q[k] += alpha * delta * e
			e *= a.cfg.Gamma * a.cfg.TraceLambda
			if e < a.cfg.TraceCutoff {
				delete(a.traces, k)
			} else {
				a.traces[k] = e
			}
		}
	}
}

// UpdateSARSA applies the on-policy update with the actually-chosen next
// action.
func (a *Agent) UpdateSARSA(s, act int, reward float64, next, nextAct int, elapsed int) {
	if a.cfg.Rule != SARSA {
		panic("qlearn: UpdateSARSA on a non-SARSA agent")
	}
	if elapsed < 1 {
		elapsed = 1
	}
	g := a.cfg.Gamma
	if elapsed > 1 {
		g = math.Pow(a.cfg.Gamma, float64(elapsed))
	}
	i := a.idx(s, act)
	a.mark(i)
	a.visits[i]++
	alpha := a.alpha(a.visits[i])
	a.updates++
	target := reward + g*a.Q(next, nextAct)
	a.q[i] += alpha * (target - a.q[i])
}

// Rule reports the configured update rule.
func (a *Agent) Rule() Rule { return a.cfg.Rule }

// Gamma reports the configured discount.
func (a *Agent) Gamma() float64 { return a.cfg.Gamma }
