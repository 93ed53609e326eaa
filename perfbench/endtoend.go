package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fleet"
)

// tally counts attempted and failed operations: fleet shards or
// experiment replicas. A run whose output check fails counts all of its
// operations as failed.
type tally struct {
	attempted, failed int64
	problems          []string
}

func (t *tally) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// outcome is one run of a workload.
type outcome struct {
	events uint64
	ops    int64
	digest string
	fleet  *fleet.Summary
	slot   *experiment.Summary
}

// countRun adds a run's operations and the failures err reports. A
// fleet.PartialError names failed shards and leaves a usable summary;
// any other error fails the whole run and is returned.
func (t *tally) countRun(ops int64, err error) error {
	t.attempted += ops
	if err == nil {
		return nil
	}
	var pe *fleet.PartialError
	if errors.As(err, &pe) {
		t.failed += int64(len(pe.Failed))
		t.problem("%v", pe)
		return nil
	}
	t.failed += ops
	return err
}

// runOnce runs the workload once on pool and checks its output:
// requests are conserved (Served + Lost <= Arrived) and the digest
// equals want when want is set.
func runOnce(ctx context.Context, w *job, pool *engine.Pool, want string, t *tally) (outcome, error) {
	var o outcome
	if w.fleet != nil {
		o.ops = int64(w.fleet.Shards())
		s, err := fleet.Run(ctx, *w.fleet, pool)
		if err := t.countRun(o.ops, err); err != nil {
			return o, err
		}
		o.fleet, o.events, o.digest = s, s.Events, fleetDigest(s)
		if s.Served+s.Lost > s.Arrived {
			t.failed += o.ops
			t.problem("served %d + lost %d exceeds arrived %d", s.Served, s.Lost, s.Arrived)
		}
	} else {
		j := w.slot
		o.ops = int64(len(j.seeds))
		s, err := experiment.RunReplicatedCtx(ctx, j.sc, j.pf, j.seeds, experiment.Parallel{Workers: pool.Workers, Progress: pool.Progress})
		if err := t.countRun(o.ops, err); err != nil {
			return o, err
		}
		o.slot, o.events, o.digest = s, uint64(s.Replicas)*uint64(j.sc.Slots), slotDigest(s)
		if m := s.LossRate; m.N() > 0 && (m.Min() < 0 || m.Max() > 1) {
			t.failed += o.ops
			t.problem("replica loss rate outside [0, 1]: %v..%v", m.Min(), m.Max())
		}
	}
	if want != "" && o.digest != want {
		t.failed += o.ops
		t.problem("output digest %s, want %s", o.digest, want)
	}
	return o, nil
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rep is one timed repetition.
type rep struct {
	wall, cpu time.Duration
	outcome
}

func (r rep) eventsPerSec() float64 { return float64(r.events) / r.wall.Seconds() }
func (r rep) cpuNsPerEvent() float64 {
	return float64(r.cpu.Nanoseconds()) / float64(r.events)
}

// timedRun runs the job once and times it in wall and process CPU time.
func timedRun(ctx context.Context, w *job, pool *engine.Pool, want string, t *tally) (rep, error) {
	c0, w0 := cpuTime(), time.Now()
	o, err := runOnce(ctx, w, pool, want, t)
	return rep{wall: time.Since(w0), cpu: cpuTime() - c0, outcome: o}, err
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests are the outputs of every workload at the default
// seed, recorded on one architecture (float results can differ in the
// last bit elsewhere).
type recordedDigests struct {
	Seed    uint64            `json:"seed"`
	GOARCH  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
}

// recordedDigest returns the recorded digest for the workload at seed,
// or "" when none applies.
func recordedDigest(name string, seed uint64) (string, error) {
	var r recordedDigests
	if err := json.Unmarshal(digestsJSON, &r); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	if r.Seed != seed || r.GOARCH != runtime.GOARCH {
		return "", nil
	}
	return r.Digests[name], nil
}
