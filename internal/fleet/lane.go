// The lane and the group driver: the one instance lifecycle every fleet
// run goes through.
//
// A CT group is a run of consecutive instances [lo, hi) that advance on
// one event kernel, their event streams interleaved by the kernel's
// (time, seq) order. An uncoupled instance is a group of one on the
// worker's kernel with no shared resource; a coupled run (Spec.Couple)
// groups Spec.CoupleSize instances and adds a shared resource
// (internal/shared) that arbitrates service starts and power commands.
// Groups live strictly within a shard — Validate guarantees ShardSize
// is a multiple of CoupleSize — so shards stay independent and the
// bit-identical -parallel contract is untouched: a shard's result is a
// pure function of the spec and the shard index, whatever worker runs
// it.
//
// Determinism inside a group: lanes are reset in ascending instance
// order, so their initial events claim kernel sequence numbers in that
// order and every same-time tie (the time-0 ticks, synchronized period
// boundaries) breaks FIFO by instance index, every run. Resource wait
// queues grant FIFO and run synchronously on the event loop, so the
// interleaving — and therefore every metric — is reproducible bit for
// bit.
//
// Reuse contract: the kernel, the lanes (simulators + per-class
// policy/source/config + streams), and the shared resource all persist
// across every group the worker runs, reset in place per group; after
// warm-up a full group lifecycle performs zero heap allocations
// (TestFleetInstanceSetupAllocationFree,
// TestFleetCoupledShardAllocationFree).
package fleet

import (
	"context"
	"math"

	"repro/internal/ctsim"
	"repro/internal/engine"
	"repro/internal/eventq"
	"repro/internal/policyspec"
	"repro/internal/rng"
	"repro/internal/shared"
	"repro/internal/slotsim"
	"repro/internal/workload"
)

// workerScratch is one worker's reusable simulation state. Every piece
// survives across all the shards the worker runs without influencing
// results: a reset object is bit-identical to a freshly built one.
type workerScratch struct {
	// results is the shard's struct-of-arrays result store: one flat
	// instanceResult row per instance, written in execution order and
	// folded into the summary in instance order (the fold order is the
	// bit-exactness contract; execution order is free because every
	// instance's randomness derives from its own seed).
	results []instanceResult

	// kernel carries every CT group the worker runs, reset per group.
	kernel *eventq.Kernel
	// lanes holds one lane per group slot; slot mode uses lanes[0].
	lanes []lane

	// The group's shared resource: on a coupled run exactly one of the
	// three is non-nil, per Spec.Couple; all nil on an uncoupled run.
	channel *shared.Channel
	gateway *shared.Gateway
	budget  *shared.PowerBudget
	// outage drives the resource's scheduled outage windows
	// (Spec.Faults.OutagePeriod > 0); reused across groups.
	outage outageDriver
}

// lane is one simulation slot: the pooled simulators and per-class
// object sets for whatever instance currently occupies it, with the
// lane's own rng streams (the lanes of a group are live concurrently
// in event time, so they cannot share one stream set).
type lane struct {
	// Per-instance stream derivation, in place: root is reseeded from
	// the instance seed and split into the policy and simulator streams,
	// reproducing rng.New(seed).Split()/.Split() bit for bit. Faulted
	// runs split a third, fault-dedicated stream after those two, so
	// enabling faults never perturbs the policy or arrival sequences.
	root        rng.Stream
	polStream   rng.Stream
	simStream   rng.Stream
	faultStream rng.Stream

	classes []classScratch
	ct      *ctsim.Sim   // CT mode, on the worker's kernel
	slot    *slotsim.Sim // slot mode
}

// classScratch is one lane's pooled object set for one class.
type classScratch struct {
	pol      slotsim.Policy
	resetPol func(*rng.Stream)
	adapted  ctsim.Policy         // CT mode: pol behind the slot adapter
	src      *ctsim.RenewalSource // CT mode arrival source
	arr      *workload.Renewal    // slot mode arrival process
	// faults is the cached per-(lane, class) ctsim fault config; cfg
	// points at it when the spec enables crash/retry faults. Its Stream
	// aliases the lane's fault stream, reseeded per instance.
	faults ctsim.Faults
	// cfg is the instance configuration for this (lane, class) pair —
	// every field is constant across instances (the per-instance state
	// lives in the streams, source, and policy, all reset in place) — so
	// it is validated once here and every reset takes the
	// ctsim.ResetValidated fast path.
	cfg ctsim.Config
}

// classState returns the lane's pooled objects for class ci, building
// them on first use with the lane's streams and the run's shared
// resource (nil when uncoupled). The build performs the only
// allocations ever made per (lane, class); every instance after that
// reuses the set via resets.
func (ln *lane) classState(r *runner, ci int, res ctsim.Resource) (*classScratch, error) {
	if ln.classes == nil {
		ln.classes = make([]classScratch, len(r.classes))
	}
	cs := &ln.classes[ci]
	if cs.pol != nil {
		return cs, nil
	}
	if err := cs.build(r, ci, ln, res); err != nil {
		// Discard the half-built set: the memo keys on cs.pol, so a
		// partially filled scratch would be handed out as complete to the
		// lane's next instance of this class and panic instead of failing
		// with the real error.
		*cs = classScratch{}
		return nil, err
	}
	return cs, nil
}

// build fills one classScratch for class ci, wiring ln's streams and
// the resource into the cached config.
func (cs *classScratch) build(r *runner, ci int, ln *lane, res ctsim.Resource) error {
	cc := &r.classes[ci]
	env := policyspec.Env{Device: cc.slotted, QueueCap: r.spec.QueueCap, LatencyWeight: r.spec.LatencyWeight}
	pol, err := cc.pol.Build(env, &ln.polStream)
	if err != nil {
		return err
	}
	reset, err := policyReset(pol)
	if err != nil {
		return err
	}
	cs.pol, cs.resetPol = pol, reset
	if r.spec.Mode == ModeSlot {
		cs.arr, err = workload.NewRenewal(cc.arrDist)
		return err
	}
	cs.adapted = ctsim.Adapt(pol, r.spec.Period)
	if cs.src, err = ctsim.NewRenewalSource(cc.arrDist); err != nil {
		return err
	}
	// Instances never run past the spec horizon, so the source can size
	// its pre-draw blocks against it instead of buying a full ramp block
	// for the one speculative past-horizon draw. Purely a sizing hint:
	// arrival sequences (and so all output) are unchanged.
	cs.src.SetLimit(r.spec.Horizon)
	cs.cfg = ctsim.Config{
		Device:         cc.src.Device,
		QueueCap:       r.spec.QueueCap,
		LatencyWeight:  r.spec.LatencyWeight / r.spec.Period,
		Policy:         cs.adapted,
		Source:         cs.src,
		Stream:         &ln.simStream,
		DecisionPeriod: r.spec.Period,
		Resource:       res,
	}
	if f := r.spec.Faults; f.crashOrRetry() {
		cs.faults = ctsim.Faults{
			CrashMTBF:  f.CrashMTBF,
			RepairMean: f.RepairMean,
			FailProb:   f.FailProb,
			RetryMax:   f.RetryMax,
			Backoff:    f.Backoff,
			Stream:     &ln.faultStream,
		}
		cs.cfg.Faults = &cs.faults
	}
	return cs.cfg.Validate()
}

// seed points the lane at instance i of class cs: streams derived from
// the per-instance seed, policy reset. Running the instance afterwards
// is bit-identical to building everything fresh.
func (ln *lane) seed(r *runner, i int, cs *classScratch) {
	ln.root.Reseed(engine.SeedFor(r.spec.Seed, uint64(i)))
	ln.root.SplitInto(&ln.polStream)
	ln.root.SplitInto(&ln.simStream)
	if r.spec.Faults.crashOrRetry() {
		ln.root.SplitInto(&ln.faultStream)
	}
	cs.resetPol(&ln.polStream)
}

// start seeds the lane for instance i and resets its CT simulator onto
// kernel k, scheduling the instance's initial events.
func (ln *lane) start(r *runner, i int, k *eventq.Kernel, res ctsim.Resource) (*classScratch, error) {
	cs, err := ln.classState(r, r.classOf(i), res)
	if err != nil {
		return nil, err
	}
	ln.seed(r, i, cs)
	cs.src.Reset()
	if ln.ct == nil {
		if ln.ct, err = ctsim.NewShared(k, cs.cfg); err != nil {
			return nil, err
		}
		// Instances never run past the horizon, so events landing beyond
		// it can skip the kernel; the hint survives ResetValidated.
		ln.ct.SetHorizonHint(r.spec.Horizon)
	} else if err = ln.ct.ResetValidated(cs.cfg); err != nil {
		return nil, err
	}
	return cs, nil
}

// lanesFor returns the worker's first n lanes, growing the pool once.
func (ws *workerScratch) lanesFor(n int) []lane {
	if len(ws.lanes) < n {
		ws.lanes = append(ws.lanes, make([]lane, n-len(ws.lanes))...)
	}
	return ws.lanes[:n]
}

// runGroup runs the CT group [lo, hi) on the worker's kernel and writes
// one result row per instance into out. The kernel's event total lands
// on the first lane's row: exact for a group of one, and group-
// resolution for a coupled group, whose per-lane event counts do not
// exist on a shared kernel (fleet and class Events totals stay exact).
func (r *runner) runGroup(ctx context.Context, lo, hi int, ws *workerScratch, out []instanceResult) error {
	if ws.kernel == nil {
		ws.kernel = eventq.New()
	} else {
		ws.kernel.Reset()
	}
	res := ws.resource(r, lo, hi)
	lanes := ws.lanesFor(hi - lo)
	// Reset lanes in ascending instance order: each lane's initial events
	// claim kernel seq numbers in that order, which fixes the FIFO
	// tie-break for all same-time events across the group.
	for j := range lanes {
		cs, err := lanes[j].start(r, lo+j, ws.kernel, res)
		if err != nil {
			return err
		}
		if ws.budget != nil {
			ws.budget.Register(cs.cfg.Device.States[cs.cfg.InitialState].Power)
		}
	}
	// Arm the outage windows after the lanes' initial events so lane seq
	// order (the FIFO tie-break) is unchanged by enabling them.
	if f := r.spec.Faults; f != nil && f.OutagePeriod > 0 {
		ws.outage.start(ws.kernel, res.(shared.Outageable), f.OutagePeriod, f.OutageDuration, r.spec.Horizon)
	}
	// Poll the context between chunks, not before the first: a group that
	// fits in one chunk costs no context check here (the shard loop polls
	// per batch of instances).
	chunk := r.spec.Period * cancelChunkTicks
	for until := chunk; ; until += chunk {
		if until > r.spec.Horizon {
			until = r.spec.Horizon
		}
		if err := ws.kernel.Run(until); err != nil {
			return err
		}
		if until >= r.spec.Horizon {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	events := ws.kernel.Fired()
	for j := range lanes {
		out[j].fillRow(lanes[j].ct.MetricsView(), r.classes[r.classOf(lo+j)].maxPower, events)
		events = 0
	}
	return nil
}

// fillRow copies one CT instance's metrics into its result row. Every
// field is assigned, so a reused row carries nothing over.
func (o *instanceResult) fillRow(m *ctsim.Metrics, maxPower float64, events uint64) {
	avgPower := m.AvgPowerW()
	o.avgPowerW = avgPower
	o.energyRed = 1 - avgPower/maxPower
	o.meanWaitSec = m.MeanWaitSeconds()
	o.lossRate = m.LossRate()
	o.energyJ = m.EnergyJ
	o.arrived = m.Arrived
	o.served = m.Served
	o.lost = m.Lost
	o.events = events
	o.resourceWaitSec = m.ResourceWaitSec
	o.resourceDrops = m.ResourceDrops
	o.budgetDenied = m.BudgetDenied
	o.downtimeSec = m.DowntimeSec
	o.energyOutageJ = m.EnergyOutageJ
	o.crashes = m.Crashes
	o.retries = m.Retries
	o.retryExhausted = m.RetryExhausted
	o.lostToOutage = m.LostToOutage
}

// runSlot runs instance i on lane 0's slotted simulator and writes its
// result row into *out.
func (r *runner) runSlot(ctx context.Context, i int, ws *workerScratch, out *instanceResult) error {
	ln := &ws.lanesFor(1)[0]
	ci := r.classOf(i)
	cc := &r.classes[ci]
	cs, err := ln.classState(r, ci, nil)
	if err != nil {
		return err
	}
	ln.seed(r, i, cs)
	cs.arr.Reset()
	cfg := slotsim.Config{
		Device:        cc.slotted,
		Arrivals:      cs.arr,
		QueueCap:      r.spec.QueueCap,
		Policy:        cs.pol,
		Stream:        &ln.simStream,
		LatencyWeight: r.spec.LatencyWeight,
	}
	if ln.slot == nil {
		if ln.slot, err = slotsim.New(cfg); err != nil {
			return err
		}
	} else if err = ln.slot.Reset(cfg); err != nil {
		return err
	}
	slots := int64(math.Ceil(r.spec.Horizon/r.spec.Period - 1e-9))
	var m slotsim.Metrics
	// Poll the context between chunks, not before the first (see
	// runGroup).
	for remaining := slots; remaining > 0; {
		chunk := int64(cancelChunkTicks)
		if remaining < chunk {
			chunk = remaining
		}
		if m, err = ln.slot.Run(chunk, nil); err != nil {
			return err
		}
		remaining -= chunk
		if remaining > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	p := m.AvgPowerW(r.spec.Period)
	out.avgPowerW = p
	out.energyRed = 1 - p/cc.maxPower
	out.meanWaitSec = m.MeanWaitSlots() * r.spec.Period
	out.lossRate = m.LossRate()
	out.energyJ = m.EnergyJ
	out.arrived = m.Arrived
	out.served = m.Served
	out.lost = m.Lost
	out.events = uint64(m.Slots)
	return nil
}

// resource returns the shared resource of the group [lo, hi) — nil on
// an uncoupled run — building it on first use and resetting it for a
// new group otherwise.
func (ws *workerScratch) resource(r *runner, lo, hi int) ctsim.Resource {
	switch r.spec.Couple {
	case CoupleChannel:
		if ws.channel == nil {
			ws.channel = shared.NewChannel()
		} else {
			ws.channel.Reset()
		}
		return ws.channel
	case CoupleGateway:
		if ws.gateway == nil {
			ws.gateway = shared.NewGateway(1, r.spec.GatewayWait)
		} else {
			ws.gateway.Reset()
		}
		return ws.gateway
	case CouplePower:
		// The cap is BudgetFrac × the group's summed always-on power.
		var capW float64
		for i := lo; i < hi; i++ {
			capW += r.classes[r.classOf(i)].maxPower
		}
		capW *= r.spec.BudgetFrac
		if ws.budget == nil {
			ws.budget = shared.NewPowerBudget(capW)
		} else {
			ws.budget.Reset(capW)
		}
		if f := r.spec.Faults; f != nil && f.OutagePeriod > 0 {
			ws.budget.SetBrownoutFrac(f.BrownoutFrac)
		}
		return ws.budget
	}
	return nil
}

// outageDriver schedules a shared resource's outage windows on the
// group kernel: one chained toggle event flips the resource down at
// each window start ([k·period, k·period + duration) for k ≥ 1, first
// window at t=period) and up at its end. Toggles are ordinary kernel
// events, so they interleave with the lanes' events in deterministic
// (time, seq) order and recycle one pooled event slot — the outage
// path allocates nothing in steady state.
type outageDriver struct {
	k       *eventq.Kernel
	res     shared.Outageable
	period  float64
	dur     float64
	horizon float64
	down    bool
	hToggle eventq.Handler // bound once; reused across groups
}

// start arms the driver for a new group run on kernel k. Call after
// the group's lanes have scheduled their initial events (toggle seq
// numbers follow them; interleaving stays deterministic either way).
func (o *outageDriver) start(k *eventq.Kernel, res shared.Outageable, period, dur, horizon float64) {
	o.k, o.res = k, res
	o.period, o.dur, o.horizon = period, dur, horizon
	o.down = false
	if o.hToggle == nil {
		o.hToggle = o.toggle
	}
	if period <= horizon {
		o.k.Schedule(period, o.hToggle)
	}
}

// toggle flips the resource state and chains the next flip.
func (o *outageDriver) toggle(now float64) {
	var next float64
	if !o.down {
		o.down = true
		o.res.SetDown(true, now)
		next = now + o.dur
	} else {
		o.down = false
		o.res.SetDown(false, now)
		next = now + o.period - o.dur
	}
	if next <= o.horizon {
		o.k.Schedule(next, o.hToggle)
	}
}
