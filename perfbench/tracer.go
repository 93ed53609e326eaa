package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// op names one kind of timed call. Every span the traced replay records
// is a call from the benchmark into a public function of one layer.
type op int

const (
	opLifecycle     op = iota // per-instance reseed, resets, metric readout
	opStep                    // one eventq.Kernel.Step (ctsim handler + kernel)
	opGrant                   // ctsim.Sim.ResourceGranted, called back by a resource
	opAdaptDecide             // ctsim.Adapt's Decide, around the slotted policy
	opAdaptObserve            // ctsim.Adapt's Observe, around the slotted learner
	opCoreDecide              // core.Manager.Decide
	opCoreObserve             // core.Manager.Observe
	opPolicyDecide            // classical policy Decide
	opPolicyObserve           // classical policy Observe
	opArrival                 // ctsim.Source.Next or workload.Arrivals.Next
	opResRequest              // ctsim.Resource.RequestService
	opResRelease              // ctsim.Resource.ReleaseService
	opResCancel               // ctsim.Resource.CancelWait
	opResAllow                // ctsim.Resource.AllowTransition
	opResOutage               // shared.Outageable.SetDown
	opSlotStep                // slotsim.Sim.Step
	nOps
)

// opStats accumulates one op: call count, summed self time (duration
// minus the durations of nested spans), the number of nested spans, and
// the distribution of whole-call durations.
type opStats struct {
	n, self, kids int64
	hist          hist
}

type frame struct {
	op                op
	start, child, kid int64
}

// tracer records nested spans on one goroutine. Frame 0 is the replay
// loop itself: time it spends outside every span is the ledger residual.
type tracer struct {
	epoch  time.Time
	depth  int
	frames [16]frame
	ops    [nOps]opStats

	// Kernel occupancy, sampled before every traced Step.
	pendingSum, pendingN int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(o op) {
	t.depth++
	f := &t.frames[t.depth]
	f.op, f.child, f.kid = o, 0, 0
	f.start = t.now()
}

func (t *tracer) end() {
	end := t.now()
	f := &t.frames[t.depth]
	d := end - f.start
	s := &t.ops[f.op]
	s.n++
	s.self += d - f.child
	s.kids += f.kid
	s.hist.add(d)
	t.depth--
	p := &t.frames[t.depth]
	p.child += d
	p.kid++
}

// spanCost is the timer cost one span adds: self is what an empty span
// measures for itself, parent is what it adds to the enclosing span's
// self time on top of that.
type spanCost struct{ self, parent float64 }

// calibrate measures spanCost as the median over blocks of empty spans
// nested in one parent span.
func calibrate() spanCost {
	const blocks, perBlock = 31, 4096
	selfs := make([]float64, blocks)
	parents := make([]float64, blocks)
	for b := range selfs {
		t := newTracer()
		t.begin(opLifecycle)
		for i := 0; i < perBlock; i++ {
			t.begin(opStep)
			t.end()
		}
		t.end()
		selfs[b] = float64(t.ops[opStep].self) / perBlock
		parents[b] = float64(t.ops[opLifecycle].self) / perBlock
	}
	return spanCost{self: median(selfs), parent: median(parents)}
}

// netSelf returns op o's self time with the timer cost of its own span
// and of its nested spans removed.
func (t *tracer) netSelf(o op, c spanCost) float64 {
	s := &t.ops[o]
	return float64(s.self) - float64(s.n)*c.self - float64(s.kids)*c.parent
}

// overhead returns the timer cost netSelf removed from every op, plus
// what the top-level spans added to the replay loop.
func (t *tracer) overhead(c spanCost) float64 {
	v := float64(t.frames[0].kid) * c.parent
	for o := range t.ops {
		v += float64(t.ops[o].n)*c.self + float64(t.ops[o].kids)*c.parent
	}
	return v
}

// hist is a log-linear histogram of non-negative integers (nanoseconds):
// exact below 32, then 32 buckets per power of two, so a bucket is at
// most 1/32 of its value wide. Counts are integers, so two histograms
// of the same samples are identical whatever the order of adds.
type hist struct {
	n int64
	b [64 << histSubBits]int64
}

const histSubBits = 5

func bucketOf(v int64) int {
	if v < 1<<histSubBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return (e+1)<<histSubBits + int(uint64(v)>>e) - 1<<histSubBits
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < 1<<histSubBits {
		return float64(i)
	}
	e := i>>histSubBits - 1
	lo := uint64(i&(1<<histSubBits-1)+1<<histSubBits) << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

func (h *hist) add(v int64) {
	h.n++
	h.b[bucketOf(v)]++
}

// quantile returns the nearest-rank q-quantile: the smallest bucket
// holding at least ceil(q·n) samples at or below it. 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q*float64(h.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.b {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.b) - 1)
}

// tailLevel returns the highest of the percentiles 90, 99, 99.9, …
// that still leaves at least ten of n samples beyond it, or the median
// when even the 90th does not.
func tailLevel(n int64) float64 {
	level := 0.5
	for k := int64(10); k <= 1e9 && n >= 10*k; k *= 10 {
		level = 1 - 1/float64(k)
	}
	return level
}

// tail returns the quantile at want, or at the highest level below it
// that the ten-samples-beyond rule admits, with the level used.
func (h *hist) tail(want float64) (v, level float64) {
	level = tailLevel(h.n)
	if want < level {
		level = want
	}
	return h.quantile(level), level
}

// pctName names a percentile level: 0.5 → "p50", 0.999 → "p99.9".
func pctName(level float64) string {
	nines := int(math.Round(math.Log10(1 / (1 - level))))
	return fmt.Sprintf("p%.*f", max(0, nines-2), 100*level)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
