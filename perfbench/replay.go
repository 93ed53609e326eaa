package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/eventq"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/shared"
	"repro/internal/slotsim"
)

// The replay runs a fleet spec's instances again outside package fleet,
// built from the public constructors fleet.Run uses and in the order it
// uses them (class-major within each shard, pooled objects reset per
// instance), so its totals must equal fleet.Run's. Untraced, it drives
// each kernel the way fleet.Run does; traced, it wraps every layer
// interface in a timing decorator and drives the kernel one Step at a
// time. Fleet's own shard loop and summary fold are not public; the
// ledger charges them as the part of fleet.Run the replay does not
// cover.

// replayTotals are the replay's simulated totals, summed like fleet.Run
// sums them (energy per shard in instance order, then across shards).
type replayTotals struct {
	instances                                      int64
	events                                         uint64
	arrived, served, lost                          int64
	energyJ                                        float64
	crashes, retries, retryExhausted, lostToOutage int64
	unconserved                                    int64 // instances with Served + Lost > Arrived
	qlearnUpdates                                  int64
	tableBytes                                     int // largest Q-table of any learner
}

type replayClass struct {
	dev      *device.PSM
	slotted  *device.Slotted
	polName  string
	polParam float64 // -1 when the policy token has no parameter
	arr      dist.Continuous
}

// laneClass is one lane's pooled object set for one class.
type laneClass struct {
	reset  func(*rng.Stream)
	mgr    *core.Manager // the Q-DPM learner, when the class uses it
	src    *ctsim.RenewalSource
	faults ctsim.Faults
	cfg    ctsim.Config
}

// lane is the state that runs one instance at a time: the simulator,
// per-class objects, the instance's streams and, in a traced coupled
// group, its timed view of the shared resource.
type lane struct {
	k                       *eventq.Kernel // uncoupled lanes own their kernel
	sim                     *ctsim.Sim
	classes                 []laneClass
	root, pol, simS, faultS rng.Stream
	res                     laneResource
}

type row struct {
	energyJ                                        float64
	arrived, served, lost                          int64
	events                                         uint64
	crashes, retries, retryExhausted, lostToOutage int64
}

type fleetReplay struct {
	sp      *fleet.Spec
	classes []replayClass
	pattern []int
	offsets [][]int
	faulted bool    // crash or retry faults: a third stream per instance
	tr      *tracer // nil: untraced
	shared  sharedStats
	tot     replayTotals

	lane  lane
	grp   group
	rows  []row
	atEnd bool
	hEnd  eventq.Handler
}

// group is the coupled-mode state: one kernel, one channel and one lane
// per group slot, reused across groups.
type group struct {
	k      *eventq.Kernel
	ch     *shared.Channel
	lanes  []lane
	outage outageDriver
}

func newFleetReplay(sp *fleet.Spec, tr *tracer) (*fleetReplay, error) {
	if sp.Mode != fleet.ModeCT {
		return nil, fmt.Errorf("replay: mode %q not supported", sp.Mode)
	}
	if sp.Couple != fleet.CoupleNone && sp.Couple != fleet.CoupleChannel {
		return nil, fmt.Errorf("replay: couple mode %q not supported", sp.Couple)
	}
	fr := &fleetReplay{sp: sp, tr: tr}
	fr.hEnd = func(float64) { fr.atEnd = true }
	if f := sp.Faults; f != nil {
		fr.faulted = f.CrashMTBF > 0 || f.FailProb > 0
	}
	for ci, c := range sp.Classes {
		sl, err := c.Device.Slot(sp.Period)
		if err != nil {
			return nil, err
		}
		name, param := c.Policy, -1.0
		if n, p, ok := strings.Cut(c.Policy, "="); ok {
			if param, err = strconv.ParseFloat(p, 64); err != nil {
				return nil, fmt.Errorf("replay: policy %q: %w", c.Policy, err)
			}
			name = n
		}
		arr, err := dist.ByName(c.Dist, c.RatePerSec)
		if err != nil {
			return nil, err
		}
		fr.classes = append(fr.classes, replayClass{dev: c.Device, slotted: sl, polName: name, polParam: param, arr: arr})
		for w := 0; w < c.Weight; w++ {
			fr.pattern = append(fr.pattern, ci)
		}
	}
	fr.offsets = make([][]int, len(fr.classes))
	for p, ci := range fr.pattern {
		fr.offsets[ci] = append(fr.offsets[ci], p)
	}
	return fr, nil
}

// newSlotPolicy builds the slotted policy fleet builds for a class.
func newSlotPolicy(c *replayClass, sp *fleet.Spec, s *rng.Stream) (slotsim.Policy, error) {
	param := func(def int64) int64 {
		if c.polParam >= 0 {
			return int64(c.polParam)
		}
		return def
	}
	switch c.polName {
	case "always-on":
		return policy.NewAlwaysOn(c.slotted)
	case "greedy-off":
		return policy.NewGreedyOff(c.slotted)
	case "timeout":
		return policy.NewFixedTimeout(c.slotted, param(8))
	case "adaptive-timeout":
		return policy.NewAdaptiveTimeout(c.slotted, param(8), 1, 128)
	case "predictive":
		return policy.NewPredictive(c.slotted, 0.5)
	case "q-dpm":
		return core.New(core.Config{
			Device:        c.slotted,
			QueueCap:      sp.QueueCap,
			LatencyWeight: sp.LatencyWeight,
			Explore:       qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000},
			Alpha:         qlearn.Polynomial{Scale: 0.5, Omega: 0.65},
			Stream:        s,
		})
	}
	return nil, fmt.Errorf("replay: unknown policy %q", c.polName)
}

// classFor returns the lane's objects for class ci, building them on
// first use with the lane's streams and the group resource (nil when
// uncoupled).
func (fr *fleetReplay) classFor(ln *lane, ci int, res ctsim.Resource) (*laneClass, error) {
	if ln.classes == nil {
		ln.classes = make([]laneClass, len(fr.classes))
	}
	lc := &ln.classes[ci]
	if lc.reset != nil {
		return lc, nil
	}
	c := &fr.classes[ci]
	sp := fr.sp
	pol, err := newSlotPolicy(c, sp, &ln.pol)
	if err != nil {
		return nil, err
	}
	switch p := pol.(type) {
	case *core.Manager:
		lc.mgr, lc.reset = p, p.Reset
	case interface{ Reset() }:
		lc.reset = func(*rng.Stream) { p.Reset() }
	default:
		return nil, fmt.Errorf("replay: policy %s is not resettable", pol.Name())
	}
	if lc.src, err = ctsim.NewRenewalSource(c.arr); err != nil {
		return nil, err
	}
	lc.src.SetLimit(sp.Horizon)
	var src ctsim.Source = lc.src
	if fr.tr != nil {
		pol = wrapSlot(pol, fr.tr)
		src = &source{s: lc.src, tr: fr.tr}
		if res != nil {
			ln.res.r, ln.res.tr, ln.res.st = res, fr.tr, &fr.shared
			ln.res.client.tr, ln.res.client.st = fr.tr, &fr.shared
			res = &ln.res
		}
	}
	pc := ctsim.Adapt(pol, sp.Period)
	if fr.tr != nil {
		pc = wrapCT(pc, fr.tr)
	}
	lc.cfg = ctsim.Config{
		Device:         c.dev,
		QueueCap:       sp.QueueCap,
		LatencyWeight:  sp.LatencyWeight / sp.Period,
		Policy:         pc,
		Source:         src,
		Stream:         &ln.simS,
		DecisionPeriod: sp.Period,
		Resource:       res,
	}
	if fr.faulted {
		f := sp.Faults
		lc.faults = ctsim.Faults{CrashMTBF: f.CrashMTBF, RepairMean: f.RepairMean, FailProb: f.FailProb,
			RetryMax: f.RetryMax, Backoff: f.Backoff, Stream: &ln.faultS}
		lc.cfg.Faults = &lc.faults
	}
	if err := lc.cfg.Validate(); err != nil {
		return nil, err
	}
	return lc, nil
}

// start points the lane at instance i: streams derived from the
// instance seed, policy and source reset.
func (fr *fleetReplay) start(ln *lane, lc *laneClass, i int) {
	ln.root.Reseed(engine.SeedFor(fr.sp.Seed, uint64(i)))
	ln.root.SplitInto(&ln.pol)
	ln.root.SplitInto(&ln.simS)
	if fr.faulted {
		ln.root.SplitInto(&ln.faultS)
	}
	lc.reset(&ln.pol)
	lc.src.Reset()
}

func (fr *fleetReplay) begin() {
	if fr.tr != nil {
		fr.tr.begin(opLifecycle)
	}
}

func (fr *fleetReplay) end() {
	if fr.tr != nil {
		fr.tr.end()
	}
}

// run replays every instance of the spec.
func (fr *fleetReplay) run(ctx context.Context) error {
	sp := fr.sp
	if cap(fr.rows) < sp.ShardSize {
		fr.rows = make([]row, sp.ShardSize)
	}
	for shard := 0; shard < sp.Shards(); shard++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := shard * sp.ShardSize
		hi := min(lo+sp.ShardSize, sp.Devices)
		rows := fr.rows[:hi-lo]
		if sp.Couple == fleet.CoupleNone {
			if err := fr.shardUncoupled(ctx, lo, hi, rows); err != nil {
				return err
			}
		} else {
			for glo := lo; glo < hi; glo += sp.CoupleSize {
				ghi := min(glo+sp.CoupleSize, hi)
				if err := fr.group(ctx, glo, ghi, rows[glo-lo:ghi-lo]); err != nil {
					return fmt.Errorf("replay: group [%d,%d): %w", glo, ghi, err)
				}
			}
		}
		var energy float64
		t := &fr.tot
		for i := range rows {
			r := &rows[i]
			energy += r.energyJ
			t.instances++
			t.events += r.events
			t.arrived += r.arrived
			t.served += r.served
			t.lost += r.lost
			t.crashes += r.crashes
			t.retries += r.retries
			t.retryExhausted += r.retryExhausted
			t.lostToOutage += r.lostToOutage
			if r.served+r.lost > r.arrived {
				t.unconserved++
			}
		}
		t.energyJ += energy
	}
	return nil
}

// shardUncoupled runs instances [lo, hi) class-major, each on the lane's
// own kernel.
func (fr *fleetReplay) shardUncoupled(ctx context.Context, lo, hi int, rows []row) error {
	L := len(fr.pattern)
	ln := &fr.lane
	for ci := range fr.classes {
		for _, off := range fr.offsets[ci] {
			for i := lo + (off-lo%L+L)%L; i < hi; i += L {
				if err := fr.instance(ctx, ln, ci, i, &rows[i-lo]); err != nil {
					return fmt.Errorf("replay: instance %d: %w", i, err)
				}
			}
		}
	}
	return nil
}

func (fr *fleetReplay) instance(ctx context.Context, ln *lane, ci, i int, out *row) error {
	fr.begin()
	lc, err := fr.classFor(ln, ci, nil)
	if err == nil {
		fr.start(ln, lc, i)
		if ln.sim == nil {
			ln.k = eventq.New()
			if ln.sim, err = ctsim.NewWithKernel(ln.k, lc.cfg); err == nil {
				ln.sim.SetHorizonHint(fr.sp.Horizon)
			}
		} else {
			err = ln.sim.ResetValidated(lc.cfg)
		}
	}
	fr.end()
	if err != nil {
		return err
	}
	if fr.tr != nil {
		err = fr.step(ln.k)
	} else {
		err = ln.sim.RunChunked(ctx, fr.sp.Horizon, fr.chunk())
	}
	if err != nil {
		return err
	}
	fr.begin()
	fr.readout(ln, lc, out)
	out.events = fr.fired(ln.k)
	fr.end()
	return nil
}

// chunk is fleet's cancellation chunk: 8192 governor periods.
func (fr *fleetReplay) chunk() float64 { return fr.sp.Period * 8192 }

// fired is the kernel's event count, less the traced drive's sentinel.
func (fr *fleetReplay) fired(k *eventq.Kernel) uint64 {
	if fr.tr != nil {
		return k.Fired() - 1
	}
	return k.Fired()
}

func (fr *fleetReplay) readout(ln *lane, lc *laneClass, out *row) {
	m := ln.sim.MetricsView()
	*out = row{
		energyJ: m.EnergyJ, arrived: m.Arrived, served: m.Served, lost: m.Lost,
		crashes: m.Crashes, retries: m.Retries, retryExhausted: m.RetryExhausted, lostToOutage: m.LostToOutage,
	}
	if lc.mgr != nil {
		fr.tot.qlearnUpdates += lc.mgr.Agent().Updates()
		fr.tot.tableBytes = max(fr.tot.tableBytes, lc.mgr.TableBytes())
	}
}

// step drives k to the horizon one Step at a time. A sentinel event at
// the horizon ends the loop; the events due exactly at the horizon that
// were scheduled after it then fire in a closing Run, which also leaves
// the clock at the horizon — the same events in the same order as
// fleet's Run(horizon).
func (fr *fleetReplay) step(k *eventq.Kernel) error {
	tr := fr.tr
	fr.atEnd = false
	if _, err := k.Schedule(fr.sp.Horizon, fr.hEnd); err != nil {
		return err
	}
	for !fr.atEnd {
		tr.pendingSum += int64(k.Len())
		tr.pendingN++
		tr.begin(opStep)
		ok := k.Step()
		tr.end()
		if !ok {
			return errors.New("replay: kernel drained before the horizon")
		}
	}
	tr.begin(opStep)
	err := k.Run(fr.sp.Horizon)
	tr.end()
	return err
}

// group runs coupled instances [lo, hi) on one shared kernel and
// channel, as fleet's coupled shard loop does.
func (fr *fleetReplay) group(ctx context.Context, lo, hi int, rows []row) error {
	sp, g := fr.sp, &fr.grp
	fr.begin()
	err := fr.startGroup(lo, hi)
	fr.end()
	if err != nil {
		return err
	}
	if fr.tr != nil {
		err = fr.step(g.k)
	} else {
		err = runKernel(ctx, g.k, sp.Horizon, fr.chunk())
	}
	if err != nil {
		return err
	}
	fr.begin()
	for j := range rows {
		ln := &g.lanes[j]
		fr.readout(ln, &ln.classes[fr.pattern[(lo+j)%len(fr.pattern)]], &rows[j])
	}
	// A shared kernel's events are credited to the group's first lane.
	rows[0].events = fr.fired(g.k)
	fr.end()
	return nil
}

func (fr *fleetReplay) startGroup(lo, hi int) error {
	sp, g := fr.sp, &fr.grp
	if g.k == nil {
		g.k, g.ch = eventq.New(), shared.NewChannel()
	} else {
		g.k.Reset()
		g.ch.Reset()
	}
	for len(g.lanes) < hi-lo {
		g.lanes = append(g.lanes, lane{})
	}
	// Lanes start in instance order: their initial events take kernel
	// sequence numbers in that order, which breaks same-time ties.
	for j := 0; j < hi-lo; j++ {
		i, ln := lo+j, &g.lanes[j]
		lc, err := fr.classFor(ln, fr.pattern[i%len(fr.pattern)], g.ch)
		if err != nil {
			return err
		}
		fr.start(ln, lc, i)
		if ln.sim == nil {
			if ln.sim, err = ctsim.NewShared(g.k, lc.cfg); err != nil {
				return err
			}
			ln.sim.SetHorizonHint(sp.Horizon)
		} else if err := ln.sim.ResetValidated(lc.cfg); err != nil {
			return err
		}
	}
	if f := sp.Faults; f != nil && f.OutagePeriod > 0 {
		g.outage.start(g.k, g.ch, fr.tr, f.OutagePeriod, f.OutageDuration, sp.Horizon)
	}
	return nil
}

// runKernel is fleet's coupled drive: Run in cancellation chunks.
func runKernel(ctx context.Context, k *eventq.Kernel, horizon, chunk float64) error {
	for until := chunk; ; until += chunk {
		until = min(until, horizon)
		if err := k.Run(until); err != nil {
			return err
		}
		if until >= horizon {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// outageDriver opens an outage window on the group resource every
// period (the first at t=period) for dur seconds: one chained kernel
// event toggles it, as in fleet's coupled driver.
type outageDriver struct {
	k                    *eventq.Kernel
	res                  shared.Outageable
	tr                   *tracer
	period, dur, horizon float64
	down                 bool
	hToggle              eventq.Handler
}

func (o *outageDriver) start(k *eventq.Kernel, res shared.Outageable, tr *tracer, period, dur, horizon float64) {
	o.k, o.res, o.tr = k, res, tr
	o.period, o.dur, o.horizon = period, dur, horizon
	o.down = false
	if o.hToggle == nil {
		o.hToggle = o.toggle
	}
	if period <= horizon {
		o.k.Schedule(period, o.hToggle)
	}
}

func (o *outageDriver) toggle(now float64) {
	o.down = !o.down
	if o.tr != nil {
		o.tr.begin(opResOutage)
	}
	o.res.SetDown(o.down, now)
	if o.tr != nil {
		o.tr.end()
	}
	next := now + o.period - o.dur
	if o.down {
		next = now + o.dur
	}
	if next <= o.horizon {
		o.k.Schedule(next, o.hToggle)
	}
}

// slotTotals are the slotted replay's totals and its rebuilt summary.
type slotTotals struct {
	slots                 uint64
	arrived, served, lost int64
	unconserved           int64
	qlearnUpdates         int64
	tableBytes            int
	sum                   *experiment.Summary
}

// replaySlot runs every replica of the slotted job as experiment's
// replica runner builds it, and pools the metrics into a summary that
// must equal experiment.RunReplicatedCtx's bit for bit.
func replaySlot(ctx context.Context, j *slotJob, tr *tracer) (slotTotals, error) {
	var t slotTotals
	t.sum = &experiment.Summary{Policy: j.pf.Name, Scenario: j.sc.Name}
	dev := j.sc.Device
	maxPower := dev.MaxPowerEnergy() / dev.SlotDuration
	for _, seed := range j.seeds {
		if err := ctx.Err(); err != nil {
			return t, err
		}
		if tr != nil {
			tr.begin(opLifecycle)
		}
		root := rng.New(seed)
		polS, simS := root.Split(), root.Split()
		pol, err := j.pf.New(polS)
		if err != nil {
			return t, err
		}
		mgr, _ := pol.(*core.Manager)
		arr := j.sc.Workload()
		if tr != nil {
			pol, arr = wrapSlot(pol, tr), &arrivals{a: arr, tr: tr}
		}
		sim, err := slotsim.New(slotsim.Config{Device: dev, Arrivals: arr, QueueCap: j.sc.QueueCap,
			Policy: pol, Stream: simS, LatencyWeight: j.sc.LatencyWeight})
		if err != nil {
			return t, err
		}
		var m slotsim.Metrics
		if tr == nil {
			if m, err = sim.Run(j.sc.Slots, nil); err != nil {
				return t, err
			}
		} else {
			tr.end()
			for s := int64(0); s < j.sc.Slots; s++ {
				tr.begin(opSlotStep)
				sim.Step()
				tr.end()
			}
			tr.begin(opLifecycle)
			m = sim.Metrics()
		}
		p := m.AvgPowerW(dev.SlotDuration)
		part := &experiment.Summary{Policy: j.pf.Name, Scenario: j.sc.Name, Replicas: 1}
		part.AvgPowerW.Add(p)
		part.AvgCost.Add(m.AvgCost())
		part.MeanWaitSlots.Add(m.MeanWaitSlots())
		part.LossRate.Add(m.LossRate())
		part.EnergyReduction.Add(1 - p/maxPower)
		t.sum.Merge(part)
		t.slots += uint64(m.Slots)
		t.arrived += m.Arrived
		t.served += m.Served
		t.lost += m.Lost
		if m.Served+m.Lost > m.Arrived {
			t.unconserved++
		}
		if mgr != nil {
			t.qlearnUpdates += mgr.Agent().Updates()
			t.tableBytes = max(t.tableBytes, mgr.TableBytes())
		}
		if tr != nil {
			tr.end()
		}
	}
	return t, nil
}

// totals are the replay's counts the per-layer report needs.
type totals struct {
	instances                                      int64
	ctEvents, slots                                uint64
	crashes, retries, retryExhausted, lostToOutage int64
	qlearnUpdates                                  int64
	tableBytes                                     int
	shared                                         sharedStats
}

// replay runs the workload's replay, traced when tr is set, and checks
// it against want, the one-worker run of the same input: the replay of
// an uncoupled fleet or of the slotted job must reproduce it exactly.
// The coupled replay is reported with its event-count difference.
func replay(ctx context.Context, w *job, tr *tracer, want outcome, t *tally) (totals, string, error) {
	mode := "untraced"
	if tr != nil {
		mode = "traced"
	}
	var out totals
	t.attempted += want.ops
	if j := w.slot; j != nil {
		st, err := replaySlot(ctx, j, tr)
		if err != nil {
			return out, "", err
		}
		out.instances, out.slots = int64(len(j.seeds)), st.slots
		out.qlearnUpdates, out.tableBytes = st.qlearnUpdates, st.tableBytes
		note := fmt.Sprintf("replay (%s): all %d replicas, %d slots, arrived %d served %d lost %d", mode, len(j.seeds), st.slots, st.arrived, st.served, st.lost)
		switch {
		case st.unconserved > 0:
			t.failed += want.ops
			t.problem("replay (%s): %d replicas with served + lost > arrived", mode, st.unconserved)
		case st.slots != want.events || !reflect.DeepEqual(st.sum, want.slot):
			t.failed += want.ops
			t.problem("replay (%s): summary differs from experiment.RunReplicatedCtx's", mode)
		}
		return out, note, nil
	}
	fr, err := newFleetReplay(w.fleet, tr)
	if err != nil {
		return out, "", err
	}
	if err := fr.run(ctx); err != nil {
		return out, "", err
	}
	g, s := &fr.tot, want.fleet
	out = totals{instances: g.instances, ctEvents: g.events, crashes: g.crashes, retries: g.retries,
		retryExhausted: g.retryExhausted, lostToOutage: g.lostToOutage, qlearnUpdates: g.qlearnUpdates,
		tableBytes: g.tableBytes, shared: fr.shared}
	note := fmt.Sprintf("replay (%s): all %d instances, events %d (fleet.Run %d, difference %d), arrived %d served %d lost %d",
		mode, g.instances, g.events, s.Events, int64(g.events)-int64(s.Events), g.arrived, g.served, g.lost)
	exact := g.instances == s.Devices && g.events == s.Events && g.arrived == s.Arrived &&
		g.served == s.Served && g.lost == s.Lost && g.energyJ == s.EnergyJ &&
		g.crashes == s.Crashes && g.retries == s.Retries && g.retryExhausted == s.RetryExhausted &&
		g.lostToOutage == s.LostToOutage
	switch {
	case g.unconserved > 0:
		t.failed += want.ops
		t.problem("replay (%s): %d instances with served + lost > arrived", mode, g.unconserved)
	case !exact && w.fleet.Couple == fleet.CoupleNone:
		t.failed += want.ops
		t.problem("replay (%s): totals differ from fleet.Run's", mode)
	case !exact:
		note += "; coupled totals differ from fleet.Run's (allowed: the group driver is not public)"
	}
	return out, note, nil
}
