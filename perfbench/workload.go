package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/stats"
)

// job is one workload: a closed job of fixed size, generated from the seed,
// either a fleet spec or a replicated slotted experiment.
type job struct {
	name   string
	params string
	fleet  *fleet.Spec
	slot   *slotJob
}

// slotJob is the paper's single-device experiment, replicated over seeds.
type slotJob struct {
	sc    experiment.Scenario
	pf    experiment.PolicyFactory
	seeds []uint64
}

var workloadNames = []string{"fleet-mix", "fleet-churn", "fleet-coupled-faulted", "paper-qdpm-slot"}

// Workload sizes: each fleet job is about five million kernel events
// (0.3 s on two cores), the slotted job 3.2 million slots.
const (
	mixDevices, mixHorizon         = 16384, 64
	churnDevices, churnHorizon     = 200000, 4
	coupledDevices, coupledHorizon = 8192, 128
	coupledFaults                  = "mtbf=150,repair=10,fail=0.05,outage=60/5"
	slotReplicas                   = 16
)

// buildWorkload generates the named workload's input from seed and
// validates it.
func buildWorkload(name string, seed uint64) (*job, error) {
	w := &job{name: name}
	switch name {
	case "fleet-mix":
		w.fleet = &fleet.Spec{Devices: mixDevices, Classes: fleet.DefaultMix(), Horizon: mixHorizon, Seed: seed}
	case "fleet-churn":
		w.fleet = &fleet.Spec{Devices: churnDevices, Classes: fleet.DefaultMix(), Horizon: churnHorizon, Seed: seed}
	case "fleet-coupled-faulted":
		f, err := fleet.ParseFaults(coupledFaults)
		if err != nil {
			return nil, err
		}
		w.fleet = &fleet.Spec{Devices: coupledDevices, Classes: fleet.DefaultMix(), Horizon: coupledHorizon,
			Couple: fleet.CoupleChannel, CoupleSize: 8, Faults: f, Seed: seed}
	case "paper-qdpm-slot":
		cfg := experiment.DefaultFig2()
		sc, _, err := experiment.Fig2Scenario(cfg)
		if err != nil {
			return nil, err
		}
		w.slot = &slotJob{sc: sc, pf: experiment.QDPMTrackingFactory(sc.Device), seeds: engine.DeriveSeeds(seed, slotReplicas)}
		w.params = fmt.Sprintf("fig2 rates=%v segment_slots=%d slots=%d replicas=%d", cfg.Rates, cfg.SegmentSlots, sc.Slots, slotReplicas)
		return w, sc.Validate()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err := w.fleet.Validate(); err != nil {
		return nil, err
	}
	sp := w.fleet
	w.params = fmt.Sprintf("devices=%d horizon=%gs mix=default shard_size=%d shards=%d", sp.Devices, sp.Horizon, sp.ShardSize, sp.Shards())
	if sp.Couple != fleet.CoupleNone {
		w.params += fmt.Sprintf(" couple=%s/%d faults=%s", sp.Couple, sp.CoupleSize, sp.Faults)
	}
	return w, nil
}

// digest hashes a run's simulated statistics (FNV-1a over their bits).
type digest struct{ b []byte }

func (d *digest) u(v uint64) { d.b = binary.LittleEndian.AppendUint64(d.b, v) }
func (d *digest) i(v int64)  { d.u(uint64(v)) }
func (d *digest) f(v float64) {
	d.u(math.Float64bits(v))
}

func (d *digest) running(r *stats.Running) {
	d.i(r.N())
	d.f(r.Mean())
	d.f(r.Var())
	d.f(r.Min())
	d.f(r.Max())
}

func (d *digest) sum() string {
	h := fnv.New64a()
	h.Write(d.b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// fleetDigest covers events, request counts, energy, the fault and
// resource counters, the pooled per-instance statistics and the wait
// percentiles.
func fleetDigest(s *fleet.Summary) string {
	var d digest
	d.i(s.Devices)
	d.u(s.Events)
	d.i(s.Arrived)
	d.i(s.Served)
	d.i(s.Lost)
	d.f(s.EnergyJ)
	d.i(s.ResourceDrops)
	d.i(s.BudgetDenied)
	d.running(&s.ResourceWaitSec)
	d.running(&s.DowntimeSec)
	d.f(s.EnergyOutageJ)
	d.i(s.Crashes)
	d.i(s.Retries)
	d.i(s.RetryExhausted)
	d.i(s.LostToOutage)
	d.running(&s.AvgPowerW)
	d.running(&s.MeanWaitSec)
	d.running(&s.LossRate)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v, err := s.WaitQuantile(q)
		if err != nil {
			v = math.NaN()
		}
		d.f(v)
	}
	return d.sum()
}

// slotDigest covers the pooled replica statistics of the slotted job.
func slotDigest(s *experiment.Summary) string {
	var d digest
	d.i(int64(s.Replicas))
	d.running(&s.AvgPowerW)
	d.running(&s.AvgCost)
	d.running(&s.MeanWaitSlots)
	d.running(&s.LossRate)
	d.running(&s.EnergyReduction)
	return d.sum()
}
