package ctsim_test

import (
	"testing"

	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/trace"
)

// The CT replica benchmarks drive one simulated second per op and report
// the kernel-level figures of merit next to the usual per-op numbers:
// ns/event (total benchmark time over fired kernel events) and events/op.
// With -benchmem, allocs/op is the steady-state allocation regression
// guard — the hot path must hold it at zero for every regime.

// benchTimeout is a minimal slotted fixed-timeout policy for the governor
// benchmarks (kept local, like slotsim's bench policy, so the benchmark
// exercises the adapter + kernel rather than policy construction).
type benchTimeout struct {
	deep  device.StateID
	slots int64
}

func (benchTimeout) Name() string { return "bench-timeout" }

func (p benchTimeout) Decide(o slotsim.Observation) device.StateID {
	if o.Queue > 0 || o.IdleSlots < p.slots {
		return 0
	}
	return p.deep
}

// benchSim assembles a replica in the requested regime. Governor runs use
// the slotted-policy adapter at a 0.5 s period (the Table CT path);
// event-driven runs use the native continuous-time timeout with its wake
// timers, which exercises Schedule + Cancel on every decision.
func benchSim(b *testing.B, src ctsim.Source, governor bool) *ctsim.Sim {
	b.Helper()
	psm := device.Synthetic3()
	cfg := ctsim.Config{
		Device:        psm,
		QueueCap:      8,
		LatencyWeight: 0.6,
		Source:        src,
		Stream:        rng.New(2),
	}
	if governor {
		cfg.DecisionPeriod = 0.5
		cfg.Policy = ctsim.Adapt(benchTimeout{deep: device.StateID(psm.NumStates() - 1), slots: 8}, 0.5)
	} else {
		pol, err := ctsim.NewTimeout(psm, 4)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Policy = pol
	}
	sim, err := ctsim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

func benchExpSource(b *testing.B, rate float64) ctsim.Source {
	b.Helper()
	d, err := dist.NewExponential(rate)
	if err != nil {
		b.Fatal(err)
	}
	src, err := ctsim.NewRenewalSource(d)
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// benchTraceSource replays a deterministic arrival every gap seconds,
// sized to outlast the benchmark horizon.
func benchTraceSource(b *testing.B, gap, horizon float64) ctsim.Source {
	b.Helper()
	n := int(horizon/gap) + 2
	times := make([]float64, n)
	for i := range times {
		times[i] = gap * float64(i+1)
	}
	src, err := ctsim.NewTraceSource(&trace.Trace{Times: times})
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// benchRun warms the replica (arena grown, ring sized), then advances it
// one simulated second per benchmark op.
func benchRun(b *testing.B, sim *ctsim.Sim) {
	const warm = 256.0
	if err := sim.Run(warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := sim.FiredEvents()
	if err := sim.Run(warm + float64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if ev := sim.FiredEvents() - before; ev > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ev), "ns/event")
		b.ReportMetric(float64(ev)/float64(b.N), "events/op")
	}
}

// BenchmarkCTReplicaRenewalGovernor: Poisson arrivals under the periodic
// governor with an adapted slotted policy — the Table CT configuration.
func BenchmarkCTReplicaRenewalGovernor(b *testing.B) {
	benchRun(b, benchSim(b, benchExpSource(b, 2), true))
}

// BenchmarkCTReplicaRenewalEventDriven: Poisson arrivals with native
// event-driven decisions and wake timers (Schedule + Cancel per decision).
func BenchmarkCTReplicaRenewalEventDriven(b *testing.B) {
	benchRun(b, benchSim(b, benchExpSource(b, 2), false))
}

// BenchmarkCTReplicaTraceGovernor: trace playback under the governor.
func BenchmarkCTReplicaTraceGovernor(b *testing.B) {
	const warm = 256.0
	benchRun(b, benchSim(b, benchTraceSource(b, 0.8, warm+float64(b.N)+1), true))
}

// BenchmarkCTReplicaTraceEventDriven: trace playback, event-driven.
func BenchmarkCTReplicaTraceEventDriven(b *testing.B) {
	const warm = 256.0
	benchRun(b, benchSim(b, benchTraceSource(b, 0.8, warm+float64(b.N)+1), false))
}

// BenchmarkAdapterLearnerTick: the slot adapter's share of one governor
// tick for a slotted learner — the closing feedback (Prev replayed from
// the quantization memo, Next quantized) and the decision on Next
// (replayed) — over a no-op learner, so only the adapter is timed.
func BenchmarkAdapterLearnerTick(b *testing.B) {
	ad := ctsim.Adapt(nopLearner{}, 0.5).(ctsim.Learner)
	fb := ctsim.Feedback{Next: ctsim.Observation{Phase: 1, IdleTime: 0.25}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fb.Prev = fb.Next
		fb.Next.Now += 0.5
		fb.Next.IdleTime += 0.5
		fb.Next.Queue = i & 3
		ad.Observe(&fb)
		ad.Decide(fb.Next)
	}
}

// nopLearner is a slotted learner that does nothing.
type nopLearner struct{}

func (nopLearner) Name() string                                { return "nop" }
func (nopLearner) Decide(o slotsim.Observation) device.StateID { return o.Phase }
func (nopLearner) Observe(*slotsim.Feedback)                   {}
