package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ctsim"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/slotsim"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{{0, 0.5}, {19, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// At the admitted level, at least ten samples lie strictly beyond
	// the reported value; one level higher would leave fewer.
	for _, n := range []int64{100, 150, 1000, 4321, 10000} {
		var h hist
		for v := int64(1); v <= n; v++ {
			h.add(v)
		}
		v, level := h.tail(0.99)
		beyond := 0
		for x := int64(1); x <= n; x++ {
			if float64(x) > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g=%v leaves %d samples beyond, want >= 10", n, 100*level, v, beyond)
		}
		if level > 0.99 {
			t.Errorf("n=%d: level %v above the requested 0.99", n, level)
		}
	}
}

func TestPctName(t *testing.T) {
	for level, want := range map[float64]string{0.5: "p50", 0.9: "p90", 0.99: "p99", 0.999: "p99.9", 1 - 1e-5: "p99.999"} {
		if got := pctName(level); got != want {
			t.Errorf("pctName(%v) = %q, want %q", level, got, want)
		}
	}
}

func TestHistQuantileWithinBucketWidth(t *testing.T) {
	var h hist
	for v := int64(0); v < 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.999} {
		want := q * 100000
		if got := h.quantile(q); got < want*(1-1.0/32)-1 || got > want*(1+1.0/32)+1 {
			t.Errorf("quantile(%v) = %v, want %v within 1/32", q, got, want)
		}
	}
}

func smallFleet(t *testing.T, couple bool) *job {
	t.Helper()
	sp := &fleet.Spec{Devices: 100, Classes: fleet.DefaultMix(), Horizon: 16, ShardSize: 16, Seed: 7}
	if couple {
		f, err := fleet.ParseFaults("mtbf=8,repair=2,fail=0.2,outage=5/1")
		if err != nil {
			t.Fatal(err)
		}
		sp.Couple, sp.CoupleSize, sp.Faults = fleet.CoupleChannel, 4, f
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return &job{name: "test", fleet: sp}
}

func smallSlot() *job {
	sc, _, err := experiment.Fig2Scenario(experiment.Fig2Config{Rates: []float64{0.02, 0.3}, SegmentSlots: 2000})
	if err != nil {
		panic(err)
	}
	return &job{name: "test", slot: &slotJob{sc: sc, pf: experiment.QDPMTrackingFactory(sc.Device), seeds: engine.DeriveSeeds(3, 4)}}
}

func TestDigestCheckFailsOnPerturbedSummary(t *testing.T) {
	ctx := context.Background()
	w := smallFleet(t, false)
	var clean tally
	o, err := runOnce(ctx, w, &engine.Pool{Workers: 2}, "", &clean)
	if err != nil || clean.failed != 0 {
		t.Fatalf("clean run: err %v, failed %d", err, clean.failed)
	}
	perturb := []func(s *fleet.Summary){
		func(s *fleet.Summary) { s.Served++ },
		func(s *fleet.Summary) { s.Events-- },
		func(s *fleet.Summary) { s.EnergyJ *= 1 + 1e-15 },
		func(s *fleet.Summary) { s.Crashes++ },
		func(s *fleet.Summary) { s.ResourceDrops++ },
	}
	for i, p := range perturb {
		s := *o.fleet
		p(&s)
		if fleetDigest(&s) == o.digest {
			t.Errorf("perturbation %d left the digest unchanged", i)
		}
	}
	// A run checked against a digest it does not produce fails all its
	// shards.
	var bad tally
	if _, err := runOnce(ctx, w, &engine.Pool{Workers: 1}, "0000000000000000", &bad); err != nil {
		t.Fatal(err)
	}
	if bad.failed != o.ops || len(bad.problems) != 1 {
		t.Errorf("mismatched digest: failed %d of %d, problems %q", bad.failed, bad.attempted, bad.problems)
	}

	j := smallSlot()
	so, err := runOnce(ctx, j, &engine.Pool{Workers: 2}, "", &clean)
	if err != nil {
		t.Fatal(err)
	}
	s := *so.slot
	s.AvgPowerW.Add(0)
	if slotDigest(&s) == so.digest {
		t.Error("perturbed slot summary kept its digest")
	}
}

func TestPartialErrorCountsInFailRatio(t *testing.T) {
	var tl tally
	pe := &fleet.PartialError{Failed: []fleet.ShardError{{Shard: 3}, {Shard: 7}}, Shards: 10}
	if err := tl.countRun(10, fmt.Errorf("run: %w", pe)); err != nil {
		t.Fatalf("partial error is not fatal, got %v", err)
	}
	if err := tl.countRun(10, nil); err != nil {
		t.Fatal(err)
	}
	if got := tl.failRatio(); got != 0.1 {
		t.Errorf("fail ratio %v, want 2/20", got)
	}
	fatal := errors.New("spec invalid")
	if err := tl.countRun(5, fatal); !errors.Is(err, fatal) {
		t.Errorf("fatal error returned as %v", err)
	}
	if tl.failed != 7 || tl.attempted != 25 {
		t.Errorf("failed %d of %d, want 7 of 25", tl.failed, tl.attempted)
	}
}

func TestDecoratorsImplementLearnerOnlyWhenWrappedDoes(t *testing.T) {
	w := smallFleet(t, false)
	sl, err := w.fleet.Classes[0].Device.Slot(w.fleet.Period)
	if err != nil {
		t.Fatal(err)
	}
	timeout, err := policy.NewFixedTimeout(sl, 8)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := core.New(core.Config{Device: sl, QueueCap: 8, LatencyWeight: 0.3, Stream: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if _, ok := wrapSlot(timeout, tr).(slotsim.Learner); ok {
		t.Error("wrapped timeout policy implements slotsim.Learner")
	}
	if _, ok := wrapSlot(mgr, tr).(slotsim.Learner); !ok {
		t.Error("wrapped Q-DPM manager does not implement slotsim.Learner")
	}
	if _, ok := wrapCT(ctsim.Adapt(wrapSlot(timeout, tr), 0.5), tr).(ctsim.Learner); ok {
		t.Error("wrapped timeout adapter implements ctsim.Learner")
	}
	if _, ok := wrapCT(ctsim.Adapt(wrapSlot(mgr, tr), 0.5), tr).(ctsim.Learner); !ok {
		t.Error("wrapped Q-DPM adapter does not implement ctsim.Learner")
	}
}

// laneMetrics runs instance i alone, with or without decorators, and
// returns its full metrics.
func laneMetrics(t *testing.T, sp *fleet.Spec, tr *tracer, i int) ctsim.Metrics {
	t.Helper()
	fr, err := newFleetReplay(sp, tr)
	if err != nil {
		t.Fatal(err)
	}
	ln := &lane{}
	lc, err := fr.classFor(ln, fr.pattern[i%len(fr.pattern)], nil)
	if err != nil {
		t.Fatal(err)
	}
	fr.start(ln, lc, i)
	sim, err := ctsim.New(lc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetHorizonHint(sp.Horizon)
	if err := sim.Run(sp.Horizon); err != nil {
		t.Fatal(err)
	}
	return sim.Metrics()
}

func TestDecoratorsAreTransparent(t *testing.T) {
	w := smallFleet(t, false)
	for i := 0; i < 8; i++ {
		plain := laneMetrics(t, w.fleet, nil, i)
		wrapped := laneMetrics(t, w.fleet, newTracer(), i)
		if !reflect.DeepEqual(plain, wrapped) {
			t.Errorf("instance %d: wrapped metrics %+v, unwrapped %+v", i, wrapped, plain)
		}
	}
}

// TestReplayReproducesRun checks the replay, untraced and traced, against
// the run it replays: uncoupled and slotted replays exactly, and the
// coupled replay's traced and untraced totals against each other.
func TestReplayReproducesRun(t *testing.T) {
	ctx := context.Background()
	for _, w := range []*job{smallFleet(t, false), smallFleet(t, true), smallSlot()} {
		var tl tally
		o, err := runOnce(ctx, w, &engine.Pool{Workers: 1}, "", &tl)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]totals
		for k, tr := range []*tracer{nil, newTracer()} {
			if got[k], _, err = replay(ctx, w, tr, o, &tl); err != nil {
				t.Fatal(err)
			}
		}
		if tl.failed != 0 {
			t.Errorf("replay checks failed: %q", tl.problems)
		}
		if !reflect.DeepEqual(got[0].ctEvents, got[1].ctEvents) || got[0].crashes != got[1].crashes || got[0].slots != got[1].slots {
			t.Errorf("traced totals %+v differ from untraced %+v", got[1], got[0])
		}
	}
}
