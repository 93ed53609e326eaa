package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime/metrics"
	"time"

	"repro/internal/engine"
	"repro/internal/eventq"
	"repro/internal/rng"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in print order.
type report struct {
	names []string
	m     map[string]metric
	lines []string // human-readable notes printed before the metrics
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// runtimeSample reads the allocation and GC CPU counters.
type runtimeSample struct{ allocs, gcCPU, totalCPU, idleCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		idleCPU:  s[3].Value.Float64(),
	}
}

// traced runs the per-layer measurement: the end-to-end job at workers
// and at one worker, the replay untraced and traced, and the eventq
// hold calibration. It checks that the one-worker output equals the
// workers output bit for bit and that the replay reproduces fleet.Run.
func traced(ctx context.Context, w *job, workers int, budget time.Duration, want string, t *tally, r *report) error {
	// Triplets of runs close in time, so the ratios between them see the
	// same machine: the job on the full pool (parallel efficiency and
	// runtime counters), the job on one worker (shard gaps from its
	// Progress callbacks), and the untraced replay (the share of the
	// one-worker run the replay covers).
	poolN := &engine.Pool{Workers: workers}
	var gaps hist
	var last time.Time
	pool1 := &engine.Pool{Workers: 1, Progress: func(done, total int) {
		now := time.Now()
		gaps.add(int64(now.Sub(last)))
		last = now
	}}
	var effs, covers, walls1 []float64
	var runsN int
	var allocs, gcCPU, busyCPU float64
	var full, one rep
	runFull := func() (err error) {
		rt0 := readRuntime()
		if full, err = timedRun(ctx, w, poolN, want, t); err != nil {
			return err
		}
		rt1 := readRuntime()
		runsN++
		allocs += rt1.allocs - rt0.allocs
		gcCPU += rt1.gcCPU - rt0.gcCPU
		busyCPU += (rt1.totalCPU - rt0.totalCPU) - (rt1.idleCPU - rt0.idleCPU)
		return nil
	}
	runOne := func() (err error) {
		last = time.Now()
		one, err = timedRun(ctx, w, pool1, want, t)
		return err
	}
	var wallReplay float64
	runReplay := func() error {
		w0 := time.Now()
		_, note, err := replay(ctx, w, nil, one.outcome, t)
		wallReplay = time.Since(w0).Seconds()
		if len(effs) == 0 {
			r.note("%s", note)
		}
		return err
	}
	if err := runFull(); err != nil {
		return err
	}
	if want == "" {
		want = full.digest
	}
	if err := runOne(); err != nil {
		return err
	}
	// Each triplet runs in the reverse order of the one before, so a
	// machine that speeds up or slows down during a triplet biases
	// neither ratio.
	for start := time.Now(); len(effs) < 4 || time.Since(start) < budget/2; {
		order := []func() error{runReplay, runOne, runFull}
		if len(effs)%2 == 1 {
			order = []func() error{runFull, runOne, runReplay}
		}
		for _, f := range order {
			if err := f(); err != nil {
				return err
			}
		}
		t.attempted += one.ops
		if !reflect.DeepEqual(full.fleet, one.fleet) || !reflect.DeepEqual(full.slot, one.slot) {
			t.failed += one.ops
			t.problem("1-worker summary differs from the %d-worker summary", workers)
		}
		covers = append(covers, wallReplay/one.wall.Seconds())
		effs = append(effs, full.eventsPerSec()/(float64(workers)*one.eventsPerSec()))
		walls1 = append(walls1, one.wall.Seconds())
	}
	wall1, cover := median(walls1), median(covers)

	// The traced replay.
	cost := calibrate()
	tr := newTracer()
	c0, w0 := cpuTime(), time.Now()
	tot, note, err := replay(ctx, w, tr, one.outcome, t)
	if err != nil {
		return err
	}
	cpuTraced := float64((cpuTime() - c0).Nanoseconds())
	wallTraced := time.Since(w0).Seconds()
	r.note("%s", note)

	var pending, holdNs float64
	if tr.pendingN > 0 {
		pending = float64(tr.pendingSum) / float64(tr.pendingN)
		holdNs = hold(max(1, int(math.Round(pending))))
	}

	net := func(ops ...op) float64 {
		var v float64
		for _, o := range ops {
			v += tr.netSelf(o, cost)
		}
		return v
	}
	perCall := func(o op, q float64) (float64, float64) {
		v, level := tr.ops[o].hist.tail(q)
		return max(0, v-cost.self), level
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perEvent := func(ns float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}

	// Fleet and engine.
	var shards int
	var shardP50, shardP99, lifecycle, selfShare float64
	if w.fleet != nil {
		shards = w.fleet.Shards()
		var level float64
		shardP50, _ = gaps.tail(0.5)
		shardP99, level = gaps.tail(0.99)
		r.note("fleet.shard_ms: %d shard gaps at 1 worker, tail reported at %s", gaps.n, pctName(level))
		lifecycle = net(opLifecycle) / float64(tot.instances)
		selfShare = 1 - cover
	}
	r.set("fleet.shards", float64(shards), "count")
	r.set("fleet.shard_ms.p50", shardP50/1e6, "ms")
	r.set("fleet.shard_ms.p99", shardP99/1e6, "ms")
	r.set("fleet.lifecycle_ns_per_instance", lifecycle, "ns")
	r.set("fleet.self_share", selfShare, "ratio")
	r.set("engine.parallel_eff", median(effs), "ratio")

	// Kernel and simulator.
	ctEvents := tot.ctEvents
	stepNs := perEvent(net(opStep, opGrant), ctEvents)
	r.set("eventq.pending_mean", pending, "count")
	r.set("eventq.hold_ns", holdNs, "ns")
	r.set("ctsim.events", float64(ctEvents), "count")
	r.set("ctsim.step_ns.mean", stepNs, "ns")
	r.set("ctsim.handler_ns", max(0, stepNs-holdNs), "ns")
	r.set("ctsim.crashes", float64(tot.crashes), "count")
	r.set("ctsim.retries", float64(tot.retries), "count")
	r.set("ctsim.retry_exhausted", float64(tot.retryExhausted), "count")
	r.set("ctsim.lost_to_outage", float64(tot.lostToOutage), "count")

	// Policies.
	// describe prints a per-call timing with its sample count, median and
	// the highest percentile that has ten samples beyond it.
	describe := func(name string, o op) {
		if n := tr.ops[o].n; n > 0 {
			p50, _ := perCall(o, 0.5)
			tail, level := perCall(o, 1)
			r.note("%s: n=%d p50=%.1f ns %s=%.1f ns (net of the %.1f ns timer cost of a span)", name, n, p50, pctName(level), tail, cost.self)
		}
	}
	timing := func(name string, o op, tails bool) {
		r.set(name+".calls", float64(tr.ops[o].n), "count")
		p50, _ := perCall(o, 0.5)
		r.set(name+"_ns.p50", p50, "ns")
		if tails {
			p99, _ := perCall(o, 0.99)
			r.set(name+"_ns.p99", p99, "ns")
		}
		describe(name+"_ns", o)
	}
	timing("core.decide", opCoreDecide, true)
	timing("core.observe", opCoreObserve, true)
	r.set("core.table_bytes", float64(tot.tableBytes), "B")
	r.set("qlearn.updates", float64(tot.qlearnUpdates), "count")
	timing("policy.decide", opPolicyDecide, false)

	// Arrivals and the slotted simulator.
	arrivals := tr.ops[opArrival].n
	p50, _ := perCall(opArrival, 0.5)
	r.set("workload.arrivals", float64(arrivals), "count")
	r.set("workload.arrival_ns.p50", p50, "ns")
	describe("workload.arrival_ns", opArrival)
	r.set("slotsim.slots", float64(tot.slots), "count")
	r.set("slotsim.step_ns.mean", perEvent(net(opSlotStep), tot.slots), "ns")

	// Shared resource.
	st := &tot.shared
	r.set("shared.requests", float64(st.requests), "count")
	r.set("shared.grant_ratio", ratio(st.grants, st.requests), "ratio")
	r.set("shared.wait_ratio", ratio(st.waits, st.requests), "ratio")
	r.set("shared.drop_ratio", ratio(st.drops, st.requests), "ratio")
	req50, _ := perCall(opResRequest, 0.5)
	rel50, _ := perCall(opResRelease, 0.5)
	r.set("shared.request_ns.p50", req50, "ns")
	r.set("shared.release_ns.p50", rel50, "ns")
	describe("shared.request_ns", opResRequest)
	describe("shared.release_ns", opResRelease)
	r.set("shared.allow.calls", float64(st.allows), "count")
	r.set("shared.allow_ratio", ratio(st.allowed, st.allows), "ratio")
	waitMean := 0.0
	if st.granted > 0 {
		waitMean = st.waitSimSec / float64(st.granted)
	}
	r.set("shared.wait_sim_s.mean", waitMean, "s")

	// Runtime counters of the end-to-end runs.
	r.set("runtime.heap_allocs", allocs/float64(runsN), "count")
	gcShare := 0.0
	if busyCPU > 0 {
		gcShare = gcCPU / busyCPU
	}
	r.set("runtime.gc_cpu_share", gcShare, "ratio")

	// The ledger: self times of the traced replay as shares of its CPU
	// time, scaled to the share of the one-worker run the replay covers.
	rows := []struct {
		name string
		ns   float64
	}{
		{"lifecycle", net(opLifecycle)},
		{"eventq", holdNs * float64(ctEvents)},
		{"ctsim", net(opStep, opGrant) - holdNs*float64(ctEvents)},
		{"adapt", net(opAdaptDecide, opAdaptObserve)},
		{"core", net(opCoreDecide, opCoreObserve)},
		{"policy", net(opPolicyDecide, opPolicyObserve)},
		{"workload", net(opArrival)},
		{"shared", net(opResRequest, opResRelease, opResCancel, opResAllow, opResOutage)},
		{"slotsim", net(opSlotStep)},
		{"timer", tr.overhead(cost)},
	}
	driver := "fleet.Run"
	if w.slot != nil {
		driver = "experiment.RunReplicatedCtx"
	}
	r.note("ledger (traced replay %.0f ms CPU, %.0f ms wall; the replay covers %.1f%% of the 1-worker %s):", cpuTraced/1e6, wallTraced*1e3, 100*cover, driver)
	r.note("  %-34s %10s %8s", "layer", "self ms", "share")
	r.note("  %-34s %10s %8.4f", driver+" self", "-", 1-cover)
	r.set("ledger.driver_share", 1-cover, "ratio")
	covered := 0.0
	for _, row := range rows {
		share := cover * row.ns / cpuTraced
		covered += row.ns
		r.note("  %-34s %10.1f %8.4f", row.name, row.ns/1e6, share)
		r.set("ledger."+row.name+"_share", share, "ratio")
	}
	residual := cover * (cpuTraced - covered) / cpuTraced
	r.note("  %-34s %10.1f %8.4f", "residual", (cpuTraced-covered)/1e6, residual)
	r.note("  %-34s %10.1f %8.4f", "total", cpuTraced/1e6, 1.0)
	r.set("ledger.residual_share", residual, "ratio")
	r.set("trace.overhead_ratio", wallTraced/wall1, "ratio")
	return nil
}

// hold times the public Schedule + Step hold loop with n standing
// events: each fired event schedules its successor an exponential gap
// later. It returns the median ns per Step over several blocks.
func hold(n int) float64 {
	const blocks, perBlock = 9, 1 << 18
	gaps := make([]float64, 4096)
	s := rng.New(1)
	for i := range gaps {
		gaps[i] = s.ExpFloat64()
	}
	k := eventq.New()
	var next int
	var h eventq.Handler
	h = func(now float64) {
		next++
		k.Schedule(now+gaps[next&4095], h)
	}
	for i := 0; i < n; i++ {
		k.Schedule(gaps[i&4095], h)
	}
	for i := 0; i < perBlock; i++ {
		k.Step()
	}
	ns := make([]float64, blocks)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < perBlock; i++ {
			k.Step()
		}
		ns[b] = float64(time.Since(t0).Nanoseconds()) / perBlock
	}
	return median(ns)
}
