package experiment

import (
	"context"

	"repro/internal/engine"
	"repro/internal/slotsim"
	"repro/internal/stats"
)

// Parallel configures concurrent replica execution for the experiment
// drivers. The zero value runs on GOMAXPROCS workers with no progress
// reporting — the right default for every CLI entry point.
type Parallel struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS. Workers == 1
	// degenerates to a serial run with identical (bit-for-bit) output.
	Workers int
	// Progress, when non-nil, observes job completion (serialized calls).
	Progress func(done, total int)
}

// pool adapts the options to an engine pool.
func (p Parallel) pool() *engine.Pool {
	return &engine.Pool{Workers: p.Workers, Progress: p.Progress}
}

// cancelCheckSlots is how often a replica polls its context: long runs are
// executed in chunks of this many slots so cancellation latency is bounded
// by one chunk (~a few hundred microseconds of simulation) instead of the
// full run length.
const cancelCheckSlots = 8192

// RunOneCtx executes one replica and returns the metrics; the observer,
// when non-nil, sees every slot record. It polls ctx between slot
// chunks, so a cancelled context aborts a multi-million-slot replica
// promptly with ctx's error.
func RunOneCtx(ctx context.Context, sc Scenario, pf PolicyFactory, seed uint64, observer func(slotsim.SlotRecord)) (slotsim.Metrics, error) {
	if err := sc.Validate(); err != nil {
		return slotsim.Metrics{}, err
	}
	sim, err := newReplicaSim(sc, pf, seed)
	if err != nil {
		return slotsim.Metrics{}, err
	}
	var m slotsim.Metrics
	for remaining := sc.Slots; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return slotsim.Metrics{}, err
		}
		chunk := int64(cancelCheckSlots)
		if remaining < chunk {
			chunk = remaining
		}
		// Metrics accumulate across Run calls; the last call returns the
		// totals for the whole replica.
		if m, err = sim.Run(chunk, observer); err != nil {
			return slotsim.Metrics{}, err
		}
		remaining -= chunk
	}
	return m, nil
}

// RunReplicatedCtx executes one replica per seed on a worker pool and
// pools the metrics. The reduction merges per-replica summaries in seed
// order, so the result is bit-identical to the serial loop for every
// worker count.
func RunReplicatedCtx(ctx context.Context, sc Scenario, pf PolicyFactory, seeds []uint64, par Parallel) (*Summary, error) {
	if len(seeds) == 0 {
		return nil, errNoSeeds
	}
	maxPower := sc.Device.MaxPowerEnergy() / sc.Device.SlotDuration
	parts, err := engine.Map(ctx, par.pool(), len(seeds),
		func(ctx context.Context, i int) (*Summary, error) {
			m, err := RunOneCtx(ctx, sc, pf, seeds[i], nil)
			if err != nil {
				return nil, err
			}
			s := &Summary{Policy: pf.Name, Scenario: sc.Name}
			s.addReplica(&m, sc.Device.SlotDuration, maxPower)
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	sum := &Summary{Policy: pf.Name, Scenario: sc.Name}
	for _, p := range parts {
		sum.Merge(p)
	}
	return sum, nil
}

// replicaGrid fans one replica job per (cell, seed) pair across the pool
// and reduces each cell — a (scenario, policy) pair named by the table
// drivers — by merging its single-replica summaries in seed order. The
// reduction order makes every cell's summary bit-identical to a serial
// RunReplicatedCtx, independent of worker count.
func replicaGrid[C any](ctx context.Context, par Parallel, cells []C, seeds []uint64, cell func(C) (Scenario, PolicyFactory)) ([]*Summary, error) {
	if len(seeds) == 0 {
		return nil, errNoSeeds
	}
	parts, err := engine.Map(ctx, par.pool(), len(cells)*len(seeds),
		func(ctx context.Context, i int) (*Summary, error) {
			sc, pf := cell(cells[i/len(seeds)])
			m, err := RunOneCtx(ctx, sc, pf, seeds[i%len(seeds)], nil)
			if err != nil {
				return nil, err
			}
			s := &Summary{Policy: pf.Name, Scenario: sc.Name}
			s.addReplica(&m, sc.Device.SlotDuration, sc.Device.MaxPowerEnergy()/sc.Device.SlotDuration)
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]*Summary, len(cells))
	for ci := range cells {
		sum := &Summary{}
		for si := range seeds {
			sum.Merge(parts[ci*len(seeds)+si])
		}
		out[ci] = sum
	}
	return out, nil
}

// meanSeriesGrid fans one windowed-series job per (policy, seed) pair
// across the pool and reduces each policy's replicas to their pointwise
// mean, in factory order — the shared shape of the Fig. 1 and Fig. 2
// drivers. runSeries must be safe to call concurrently for distinct
// (pf, seed) pairs.
func meanSeriesGrid(ctx context.Context, par Parallel, pfs []PolicyFactory, seeds []uint64,
	runSeries func(ctx context.Context, pf PolicyFactory, seed uint64) (*stats.Series, error),
) ([]*stats.Series, error) {
	type job struct {
		pf   PolicyFactory
		seed uint64
	}
	jobs := make([]job, 0, len(pfs)*len(seeds))
	for _, pf := range pfs {
		for _, seed := range seeds {
			jobs = append(jobs, job{pf: pf, seed: seed})
		}
	}
	reps, err := engine.Map(ctx, par.pool(), len(jobs),
		func(ctx context.Context, i int) (*stats.Series, error) {
			return runSeries(ctx, jobs[i].pf, jobs[i].seed)
		})
	if err != nil {
		return nil, err
	}
	out := make([]*stats.Series, 0, len(pfs))
	for pi, pf := range pfs {
		mean, err := MeanSeries(pf.Name, reps[pi*len(seeds):(pi+1)*len(seeds)])
		if err != nil {
			return nil, err
		}
		out = append(out, mean)
	}
	return out, nil
}
