package policy

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/slotsim"
)

// Oracle is the clairvoyant reference policy: it knows the entire future
// arrival schedule and sleeps exactly when the coming idle gap exceeds the
// device's break-even horizon. It lower-bounds what any *causal* policy —
// learned or model-based — can achieve on the same trace, so the derived
// tables use it to report "how much headroom is left".
//
// Use it with a workload.Playback built from the same counts so the
// simulated arrivals match the schedule the oracle saw.
type Oracle struct {
	r              Roles
	nextArrival    []int64 // nextArrival[t] = first slot >= t with an arrival
	breakEvenSlots int64
	horizon        int64
}

var _ slotsim.Policy = (*Oracle)(nil)

// NewOracle precomputes next-arrival distances from the per-slot counts.
func NewOracle(dev *device.Slotted, counts []int) (*Oracle, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("policy: oracle needs a non-empty schedule")
	}
	r, err := DeriveRoles(dev.PSM)
	if err != nil {
		return nil, err
	}
	tbe, err := dev.PSM.BreakEven(r.Shallow, r.Deep)
	if err != nil {
		return nil, err
	}
	be := int64(tbe / dev.SlotDuration)
	if be < 1 {
		be = 1
	}
	n := len(counts)
	next := make([]int64, n+1)
	next[n] = int64(n) + 1<<40 // sentinel: silence forever after the trace
	for t := n - 1; t >= 0; t-- {
		if counts[t] > 0 {
			next[t] = int64(t)
		} else {
			next[t] = next[t+1]
		}
	}
	return &Oracle{r: r, nextArrival: next, breakEvenSlots: be, horizon: int64(n)}, nil
}

// Name identifies the policy.
func (p *Oracle) Name() string { return "oracle" }

// Decide wakes just in time for the next arrival and sleeps through gaps
// that beat the break-even horizon.
func (p *Oracle) Decide(obs slotsim.Observation) device.StateID {
	if obs.Queue > 0 {
		return p.r.Wake
	}
	t := obs.Slot
	var gap int64
	if t >= p.horizon {
		gap = 1 << 40
	} else {
		gap = p.nextArrival[t] - t
	}
	if gap >= p.breakEvenSlots {
		return p.r.Deep
	}
	if obs.Phase == p.r.Wake {
		return p.r.Shallow
	}
	return obs.Phase
}
