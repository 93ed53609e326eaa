package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/qlearn"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/workload"
)

// TestQDPMHotPathAllocationFree pins down the hot-path guarantee: after
// warm-up (scratch buffers sized, queue ring grown), a Q-DPM slot —
// decision, simulation step, learning update — performs no heap
// allocations, for every manager variant. This is what lets the worker
// pool scale replica throughput with cores instead of with GC pressure.
func TestQDPMHotPathAllocationFree(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"watkins", func(*Config) {}},
		{"sarsa", func(c *Config) { c.Rule = qlearn.SARSA }},
		{"double", func(c *Config) { c.Rule = qlearn.DoubleQ }},
		{"traces", func(c *Config) { c.TraceLambda = 0.5 }},
		{"idle-buckets", func(c *Config) { c.IdleBuckets = []int64{2, 8} }},
		{"boltzmann", func(c *Config) { c.Explore = qlearn.Boltzmann{Temp: 0.5, MinTemp: 0.01, DecayTau: 30000} }},
		{"qos", func(c *Config) { c.QoS = &QoSConfig{TargetBacklog: 0.5, Eta: 0.01} }},
		{"fuzzy", func(c *Config) { c.Fuzzy = true }},
		// experiment.QDPMTrackingFactory's learner: constant ε and α,
		// which the agent resolves at construction.
		{"tracking", func(c *Config) {
			c.Explore, c.Alpha = qlearn.EpsGreedy{Eps: 0.08}, qlearn.Constant{C: 0.25}
		}},
	}
	dev, err := device.Synthetic3().Slot(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			arr, err := workload.NewBernoulli(0.1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Device:        dev,
				QueueCap:      8,
				LatencyWeight: 0.3,
				Explore:       qlearn.EpsGreedy{Eps: 0.3, MinEps: 0.002, DecayTau: 30000},
				Stream:        rng.New(1),
			}
			v.mut(&cfg)
			mgr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := slotsim.New(slotsim.Config{
				Device:        dev,
				Arrivals:      arr,
				QueueCap:      8,
				Policy:        mgr,
				Stream:        rng.New(2),
				LatencyWeight: 0.3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(5000, nil); err != nil { // warm up
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := sim.Run(1000, nil); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0 {
				t.Errorf("%s run loop allocates: %.1f allocs per 1000 slots, want 0", mgr.Name(), avg)
			}
		})
	}
}
