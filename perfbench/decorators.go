package main

import (
	"repro/internal/core"
	"repro/internal/ctsim"
	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/slotsim"
	"repro/internal/workload"
)

// Timing decorators: each wraps one interface a layer exposes, forwards
// every call unchanged, and records it as a span. A decorator implements
// an optional interface (a Learner's Observe) exactly when the value it
// wraps does, because the simulators type-assert for it.

// slotPolicy times a slotsim.Policy's Decide.
type slotPolicy struct {
	p      slotsim.Policy
	tr     *tracer
	decide op
}

func (d *slotPolicy) Name() string { return d.p.Name() }

func (d *slotPolicy) Decide(o slotsim.Observation) device.StateID {
	d.tr.begin(d.decide)
	a := d.p.Decide(o)
	d.tr.end()
	return a
}

// slotLearner adds Observe for a slotsim.Learner.
type slotLearner struct {
	slotPolicy
	l       slotsim.Learner
	observe op
}

func (d *slotLearner) Observe(fb *slotsim.Feedback) {
	d.tr.begin(d.observe)
	d.l.Observe(fb)
	d.tr.end()
}

// wrapSlot decorates a slotted policy. The Q-DPM manager's calls are
// core spans; every other policy's are policy spans.
func wrapSlot(p slotsim.Policy, tr *tracer) slotsim.Policy {
	decide, observe := opPolicyDecide, opPolicyObserve
	if _, ok := p.(*core.Manager); ok {
		decide, observe = opCoreDecide, opCoreObserve
	}
	sp := slotPolicy{p: p, tr: tr, decide: decide}
	if l, ok := p.(slotsim.Learner); ok {
		return &slotLearner{slotPolicy: sp, l: l, observe: observe}
	}
	return &sp
}

// ctPolicy times a ctsim.Policy's Decide (here: ctsim.Adapt's adapter).
type ctPolicy struct {
	p  ctsim.Policy
	tr *tracer
}

func (d *ctPolicy) Name() string { return d.p.Name() }

func (d *ctPolicy) Decide(o ctsim.Observation) ctsim.Decision {
	d.tr.begin(opAdaptDecide)
	a := d.p.Decide(o)
	d.tr.end()
	return a
}

// ctLearner adds Observe for a ctsim.Learner.
type ctLearner struct {
	ctPolicy
	l ctsim.Learner
}

func (d *ctLearner) Observe(fb *ctsim.Feedback) {
	d.tr.begin(opAdaptObserve)
	d.l.Observe(fb)
	d.tr.end()
}

func wrapCT(p ctsim.Policy, tr *tracer) ctsim.Policy {
	cp := ctPolicy{p: p, tr: tr}
	if l, ok := p.(ctsim.Learner); ok {
		return &ctLearner{ctPolicy: cp, l: l}
	}
	return &cp
}

// source times a ctsim.Source's Next.
type source struct {
	s  ctsim.Source
	tr *tracer
}

func (d *source) Next(st *rng.Stream) float64 {
	d.tr.begin(opArrival)
	t := d.s.Next(st)
	d.tr.end()
	return t
}

func (d *source) String() string { return d.s.String() }

// arrivals times a workload.Arrivals' Next.
type arrivals struct {
	a  workload.Arrivals
	tr *tracer
}

func (d *arrivals) Next(st *rng.Stream) int {
	d.tr.begin(opArrival)
	n := d.a.Next(st)
	d.tr.end()
	return n
}

func (d *arrivals) MeanRate() float64        { return d.a.MeanRate() }
func (d *arrivals) Clone() workload.Arrivals { return &arrivals{a: d.a.Clone(), tr: d.tr} }
func (d *arrivals) String() string           { return d.a.String() }

// sharedStats counts a shared resource's verdicts as the lanes see them.
type sharedStats struct {
	requests, grants, waits, drops int64
	allows, allowed                int64
	granted                        int64   // Wait verdicts later granted
	waitSimSec                     float64 // simulated Wait → grant time
}

// laneResource is one lane's view of the group's shared resource. It
// hands the resource its own client in place of the lane's simulator,
// so the resource's grant callback is timed too. The client is a field,
// so it is the same value on every call, as the resource's FIFO needs.
type laneResource struct {
	r      ctsim.Resource
	tr     *tracer
	st     *sharedStats
	client laneClient
}

type laneClient struct {
	g      ctsim.ResourceClient
	tr     *tracer
	st     *sharedStats
	waitAt float64
}

func (c *laneClient) ResourceGranted(now float64) {
	c.st.granted++
	c.st.waitSimSec += now - c.waitAt
	c.tr.begin(opGrant)
	c.g.ResourceGranted(now)
	c.tr.end()
}

func (d *laneResource) RequestService(now float64, g ctsim.ResourceClient) ctsim.Verdict {
	d.client.g = g
	d.tr.begin(opResRequest)
	v := d.r.RequestService(now, &d.client)
	d.tr.end()
	d.st.requests++
	switch v {
	case ctsim.Grant:
		d.st.grants++
	case ctsim.Wait:
		d.st.waits++
		d.client.waitAt = now
	default:
		d.st.drops++
	}
	return v
}

func (d *laneResource) ReleaseService(now float64, g ctsim.ResourceClient) {
	d.client.g = g
	d.tr.begin(opResRelease)
	d.r.ReleaseService(now, &d.client)
	d.tr.end()
}

func (d *laneResource) CancelWait(now float64, g ctsim.ResourceClient) {
	d.client.g = g
	d.tr.begin(opResCancel)
	d.r.CancelWait(now, &d.client)
	d.tr.end()
}

func (d *laneResource) AllowTransition(now float64, g ctsim.ResourceClient, deltaPowerW float64) bool {
	d.client.g = g
	d.tr.begin(opResAllow)
	ok := d.r.AllowTransition(now, &d.client, deltaPowerW)
	d.tr.end()
	d.st.allows++
	if ok {
		d.st.allowed++
	}
	return ok
}
