package eventq

// White-box tests for the pooled indexed heap: equivalence against a
// reference container/heap kernel under random Schedule/Cancel/fire
// interleavings, free-list reuse (steady state grows no arena), tie-break
// determinism, and stale-Ref safety across slot reuse.

import (
	"container/heap"
	"fmt"
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// refEvent / refHeap: the pre-arena future event list — a container/heap
// binary heap of boxed events with lazy cancellation — kept verbatim as
// the behavioral reference the production kernel must match.
type refEvent struct {
	time     float64
	seq      uint64
	index    int
	id       int
	canceled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refKernel drives refHeap with the reference fire/cancel semantics.
type refKernel struct {
	h   refHeap
	seq uint64
}

func (r *refKernel) schedule(t float64, id int) *refEvent {
	e := &refEvent{time: t, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.h, e)
	return e
}

func (r *refKernel) cancel(e *refEvent) { e.canceled = true }

// fire pops the earliest non-canceled event's id, or -1 when drained.
func (r *refKernel) fire() (float64, int) {
	for r.h.Len() > 0 {
		e := heap.Pop(&r.h).(*refEvent)
		if e.canceled {
			continue
		}
		return e.time, e.id
	}
	return 0, -1
}

// kernelConstructors enumerates the Kernel constructors the equivalence
// and property tests run against, by subtest name.
var kernelConstructors = []struct {
	name string
	newK func() *Kernel
}{
	{"heap", New},
}

// TestArenaMatchesReferenceHeap drives the production kernel and the
// reference kernel through the same random interleaving of schedules,
// cancels, and fires, and requires identical fire sequences (time and
// event identity). This is the load-bearing equivalence test: it pins the
// (time, seq) total order — and therefore every downstream trajectory —
// to the pre-arena kernel's.
//
// Handlers work while they fire, as simulator handlers do: each runs a
// random program of 0 to 4 operations — schedules (so a handler
// schedules none, one, or several successors), cancels of live events,
// and Len/Pending/TimeOf queries — applied to both kernels and checked
// against the reference, including that the firing event's own Ref is
// already stale. This is what exercises fire-in-place: the spent root, its overwrite by the first Schedule,
// and its pop when the handler schedules nothing.
func TestArenaMatchesReferenceHeap(t *testing.T) {
	for _, kc := range kernelConstructors {
		kc := kc
		t.Run(kc.name, func(t *testing.T) { testMatchesReference(t, kc.newK) })
	}
}

func testMatchesReference(t *testing.T, newK func() *Kernel) {
	f := func(seed uint64) bool { return matchesReferenceOnce(newK, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// matchesReferenceOnce runs one 400-op random interleaving of the
// production kernel under test against the reference kernel; false means
// the fire sequences or a query diverged.
func matchesReferenceOnce(newK func() *Kernel, seed uint64) bool {
	// maxIDs bounds the events scheduled from handlers, so the final
	// drain terminates.
	const maxIDs = 1200
	s := rng.New(seed)
	k := newK()
	ref := &refKernel{}

	type livePair struct {
		r  Ref
		re *refEvent
	}
	var live []livePair
	var refs []Ref // Ref by event id
	var gotT, wantT []float64
	var gotID, wantID []int
	ok := true

	// consistent checks the kernel's queries against the reference: Len
	// is the live count, and a random live event is pending at its time.
	consistent := func() {
		if k.Len() != len(live) {
			ok = false
		}
		if len(live) > 0 {
			p := live[int(s.Float64()*float64(len(live)))]
			if !k.Pending(p.r) || k.TimeOf(p.r) != p.re.time {
				ok = false
			}
		}
	}
	var schedule func(tt float64)
	cancel := func() {
		i := int(s.Float64() * float64(len(live)))
		k.Cancel(live[i].r)
		ref.cancel(live[i].re)
		live = append(live[:i], live[i+1:]...)
	}
	handler := func(id int) Handler {
		return func(now float64) {
			gotT = append(gotT, now)
			gotID = append(gotID, id)
			if now != k.Now() || k.Pending(refs[id]) || !math.IsNaN(k.TimeOf(refs[id])) {
				ok = false
			}
			for n := int(s.Float64() * 5); n > 0; n-- {
				switch v := s.Float64(); {
				case v < 0.5:
					if len(refs) < maxIDs {
						schedule(now + float64(int(s.Float64()*8)))
					}
				case v < 0.7 && len(live) > 0:
					cancel()
				default:
					consistent()
				}
			}
			consistent()
		}
	}
	schedule = func(tt float64) {
		id := len(refs)
		// Coarse times force heavy ties; the tie-break must match.
		r, err := k.Schedule(tt, handler(id))
		if err != nil {
			ok = false
			return
		}
		refs = append(refs, r)
		live = append(live, livePair{r: r, re: ref.schedule(tt, id)})
	}
	// fire fires one event on both kernels; the reference fires first,
	// so both agree on the queued set while the handler runs.
	fire := func() bool {
		wt, wid := ref.fire()
		if wid >= 0 {
			wantT = append(wantT, wt)
			wantID = append(wantID, wid)
			// Drop the fired event from the live set (ids are unique).
			for i := range live {
				if live[i].re.id == wid {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		if (wid >= 0) != k.Step() {
			ok = false
		}
		return wid >= 0
	}

	for op := 0; op < 400 && ok; op++ {
		switch v := s.Float64(); {
		case v < 0.55:
			schedule(k.Now() + float64(int(s.Float64()*8)))
		case v < 0.75 && len(live) > 0:
			cancel()
		default:
			fire()
		}
		consistent()
	}
	for ok && fire() { // drain both
	}
	if !ok || k.Len() != 0 || k.Step() || len(gotT) != len(wantT) {
		return false
	}
	for i := range gotT {
		if gotT[i] != wantT[i] || gotID[i] != wantID[i] {
			return false
		}
	}
	return true
}

// TestFreeListReuse pins the zero-allocation contract structurally: a
// handler that reschedules itself (the continuous-time steady state)
// cycles through the free list without ever growing the arena, and a
// schedule/cancel churn loop holds the arena at its high-water mark.
func TestFreeListReuse(t *testing.T) {
	k := New()
	var tick Handler
	n := 0
	tick = func(now float64) {
		n++
		if n < 10000 {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	if len(k.arena) != 1 {
		t.Fatalf("arena %d slots after first schedule, want 1", len(k.arena))
	}
	if err := k.Run(20000); err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Fatalf("fired %d, want 10000", n)
	}
	if len(k.arena) != 1 {
		t.Errorf("self-rescheduling chain grew the arena to %d slots, want 1 (free-list reuse)", len(k.arena))
	}

	// Churn: 4 concurrent timers repeatedly canceled and rescheduled.
	k2 := New()
	refs := make([]Ref, 4)
	for i := range refs {
		refs[i], _ = k2.Schedule(float64(i+1), func(float64) {})
	}
	high := len(k2.arena)
	for round := 0; round < 1000; round++ {
		i := round % len(refs)
		k2.Cancel(refs[i])
		refs[i], _ = k2.Schedule(float64(round%7)+1, func(float64) {})
	}
	if len(k2.arena) != high {
		t.Errorf("cancel/reschedule churn grew the arena %d → %d slots", high, len(k2.arena))
	}

	// The steady-state loop performs no heap allocations.
	k3 := New()
	var spin Handler
	spin = func(now float64) { k3.After(1, spin) }
	k3.After(1, spin)
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			k3.Step()
		}
	})
	if avg > 0 {
		t.Errorf("steady-state schedule/fire loop allocates: %.2f allocs per 1000 events, want 0", avg)
	}
}

// TestTieBreakDeterminism: same-time events fire in schedule order, even
// when interleaved with cancels that shuffle heap positions, and
// independently of how many unrelated events came before.
func TestTieBreakDeterminism(t *testing.T) {
	for _, kc := range kernelConstructors {
		kc := kc
		t.Run(kc.name, func(t *testing.T) { testTieBreak(t, kc.newK) })
	}
}

func testTieBreak(t *testing.T, newK func() *Kernel) {
	run := func(preload int) []int {
		k := newK()
		// Unrelated churn first, to displace arena slot assignment.
		var junk []Ref
		for i := 0; i < preload; i++ {
			r, _ := k.Schedule(0.25, func(float64) {})
			junk = append(junk, r)
		}
		for _, r := range junk {
			k.Cancel(r)
		}
		var order []int
		for i := 0; i < 16; i++ {
			i := i
			k.Schedule(1.0, func(float64) { order = append(order, i) })
		}
		// Cancel a few mid-pack to force removeAt re-sifts among ties.
		var extra []Ref
		for i := 0; i < 8; i++ {
			r, _ := k.Schedule(1.0, func(float64) { order = append(order, 100+i) })
			if i%2 == 0 {
				extra = append(extra, r)
			}
		}
		for _, r := range extra {
			k.Cancel(r)
		}
		k.Run(2)
		return order
	}
	want := run(0)
	for i, v := range want[:16] {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", want)
		}
	}
	for _, preload := range []int{1, 7, 33} {
		got := run(preload)
		if len(got) != len(want) {
			t.Fatalf("preload %d changed fire count: %v vs %v", preload, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("preload %d changed tie order at %d: %v vs %v", preload, i, got, want)
			}
		}
	}
}

// TestStaleRefSafety: a Ref to a fired or canceled event must stay dead
// even after its arena slot is reused — Cancel through it must not touch
// the slot's new occupant.
func TestStaleRefSafety(t *testing.T) {
	for _, kc := range kernelConstructors {
		kc := kc
		t.Run(kc.name, func(t *testing.T) { testStaleRef(t, kc.newK) })
	}
}

func testStaleRef(t *testing.T, newK func() *Kernel) {
	k := newK()
	old, _ := k.Schedule(1, func(float64) {})
	k.Step() // fires; slot returns to the free list
	if k.Pending(old) {
		t.Fatal("fired event still pending")
	}
	replFired := false
	repl, _ := k.Schedule(2, func(float64) { replFired = true }) // reuses the slot
	if repl.slot != old.slot {
		t.Fatalf("expected slot reuse (old %d, new %d)", old.slot, repl.slot)
	}
	k.Cancel(old) // stale: must be a no-op
	if !k.Pending(repl) {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
	k.Run(5)
	if !replFired {
		t.Fatal("replacement event never fired")
	}

	// Same via cancel-then-reuse.
	a, _ := k.Schedule(10, func(float64) {})
	k.Cancel(a)
	bFired := false
	b, _ := k.Schedule(11, func(float64) { bFired = true })
	if b.slot != a.slot {
		t.Fatalf("expected slot reuse after cancel (old %d, new %d)", a.slot, b.slot)
	}
	k.Cancel(a) // stale again
	k.Run(20)
	if !bFired {
		t.Fatal("stale double-cancel killed the reused slot")
	}
}

// TestResetInsideHandler: a handler that resets its own kernel leaves a
// fresh kernel behind, with or without having scheduled first. The
// firing event's slot was released before its handler ran, so Reset must
// not release it again: a slot on the free list twice would be handed
// to two later events at once.
func TestResetInsideHandler(t *testing.T) {
	for _, kc := range kernelConstructors {
		for _, schedFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/schedule-first=%v", kc.name, schedFirst), func(t *testing.T) {
				k := kc.newK()
				var order []int
				rec := func(i int) Handler { return func(float64) { order = append(order, i) } }
				k.Schedule(1, func(float64) {
					if schedFirst {
						k.Schedule(4, rec(-1))
					}
					k.Reset()
					if k.Now() != 0 || k.Len() != 0 || k.Fired() != 0 {
						t.Errorf("Reset in a handler left now=%v len=%d fired=%d", k.Now(), k.Len(), k.Fired())
					}
					k.Schedule(0.5, rec(0))
				})
				k.Schedule(2, rec(-2))
				k.Schedule(3, rec(-3))
				if !k.Step() {
					t.Fatal("Step found nothing")
				}
				if k.Len() != 1 {
					t.Fatalf("Len after the resetting handler = %d, want 1", k.Len())
				}
				slots := map[int32]bool{}
				for i := 1; i <= 8; i++ {
					r, err := k.Schedule(float64(i), rec(i))
					if err != nil {
						t.Fatal(err)
					}
					if slots[r.slot] {
						t.Fatalf("slot %d handed to two live events", r.slot)
					}
					slots[r.slot] = true
				}
				if k.Len() != 9 {
					t.Fatalf("Len = %d, want 9", k.Len())
				}
				if err := k.Run(100); err != nil {
					t.Fatal(err)
				}
				want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
				if fmt.Sprint(order) != fmt.Sprint(want) {
					t.Fatalf("fired %v, want %v", order, want)
				}
				if k.Len() != 0 {
					t.Fatalf("Len after drain = %d", k.Len())
				}
			})
		}
	}
}

// TestStopInsideReschedulingHandler: Stop from a handler that has just
// rescheduled itself (its successor took the spent root) and from one
// that scheduled nothing (the spent root is popped) both end Run after
// that event, with the clock at it and Len counting only queued events.
func TestStopInsideReschedulingHandler(t *testing.T) {
	for _, kc := range kernelConstructors {
		t.Run(kc.name, func(t *testing.T) {
			k := kc.newK()
			n := 0
			var tick Handler
			tick = func(now float64) {
				n++
				k.Schedule(now+1, tick)
				if n%3 == 0 {
					k.Stop()
				}
			}
			k.Schedule(1, tick)
			k.Schedule(2.5, func(float64) { k.Stop() })
			var got []string
			for k.Now() < 10 {
				if err := k.Run(10); err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("now=%g len=%d n=%d", k.Now(), k.Len(), n))
			}
			want := []string{
				"now=2.5 len=1 n=2", "now=3 len=1 n=3", "now=6 len=1 n=6",
				"now=9 len=1 n=9", "now=10 len=1 n=10",
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("runs ended at\n%v\nwant\n%v", got, want)
			}
		})
	}
}

// TestNestedStepAndRunFromHandler pins what a Step or Run called from
// inside a handler does: it fires the next queued events exactly as a
// kernel that removes an event before firing it would, and never fires
// the running event again. The expected logs are that pop-then-fire
// semantics written out.
func TestNestedStepAndRunFromHandler(t *testing.T) {
	want := map[string][]string{
		"step": {"A@1", "B@2", "A: len 2→2 now 2", "E@2.2", "D@2.4", "C@3"},
		"schedule-then-step": {"A@1", "F@1.5", "A: len 3→2 now 1.5",
			"E@1.7", "B@2", "D@2.4", "C@3"},
		"run": {"A@1", "B@2", "D@2.4", "A: len 2→1 now 2.5", "E@2.7", "C@3"},
	}
	for _, kc := range kernelConstructors {
		for _, variant := range []string{"step", "schedule-then-step", "run"} {
			t.Run(kc.name+"/"+variant, func(t *testing.T) {
				k := kc.newK()
				var log []string
				rec := func(name string) Handler {
					return func(now float64) { log = append(log, fmt.Sprintf("%s@%g", name, now)) }
				}
				k.Schedule(1, func(now float64) {
					log = append(log, fmt.Sprintf("A@%g", now))
					if variant == "schedule-then-step" {
						k.Schedule(1.5, rec("F"))
					}
					before := k.Len()
					if variant == "run" {
						if err := k.Run(2.5); err != nil {
							t.Error(err)
						}
					} else if !k.Step() {
						t.Error("nested Step found nothing")
					}
					log = append(log, fmt.Sprintf("A: len %d→%d now %g", before, k.Len(), k.Now()))
					k.Schedule(k.Now()+0.2, rec("E"))
				})
				k.Schedule(2, func(now float64) {
					log = append(log, fmt.Sprintf("B@%g", now))
					k.Schedule(2.4, rec("D"))
				})
				k.Schedule(3, rec("C"))
				if err := k.Run(10); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(log) != fmt.Sprint(want[variant]) {
					t.Fatalf("log\n%v\nwant\n%v", log, want[variant])
				}
				if k.Fired() != uint64(len(want[variant])-1) || k.Len() != 0 {
					t.Fatalf("fired %d, len %d; want %d, 0", k.Fired(), k.Len(), len(want[variant])-1)
				}
			})
		}
	}
}

// BenchmarkScheduleAndFire: one random-delay schedule + fire per op — the
// kernel's hot cycle. Steady state must be 0 allocs/op.
func BenchmarkScheduleAndFire(b *testing.B) {
	k := New()
	s := rng.New(1)
	fn := func(float64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now()+s.Float64(), fn)
		k.Step()
	}
}

// BenchmarkKernelHold measures schedule+fire with a large standing
// population (1k and 64k uniform-random events), where every sift
// pays O(log n) with cold index traversals.
func BenchmarkKernelHold(b *testing.B) {
	for _, hold := range []int{1 << 10, 1 << 16} {
		b.Run("heap/"+strconv.Itoa(hold>>10)+"k", func(b *testing.B) {
			k := New()
			s := rng.New(1)
			fn := func(float64) {}
			for i := 0; i < hold; i++ {
				k.Schedule(s.Float64(), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Schedule(k.Now()+s.Float64(), fn)
				k.Step()
			}
		})
	}
}

// BenchmarkRescheduleInHandler: each fired handler schedules its own
// successor an exponential gap later, over a standing population of
// pending events — the simulator pattern, and the path that fires in
// place (one sift per op on the heap). 24 is about the mean pending
// count of a coupled group of 8 lanes. Steady state must be 0 allocs/op.
func BenchmarkRescheduleInHandler(b *testing.B) {
	for _, pending := range []int{4, 24, 256} {
		b.Run("pending="+strconv.Itoa(pending), func(b *testing.B) {
			s := rng.New(1)
			gaps := make([]float64, 4096)
			for i := range gaps {
				gaps[i] = s.ExpFloat64()
			}
			k := New()
			next := 0
			var h Handler
			h = func(now float64) {
				next++
				k.Schedule(now+gaps[next&4095], h)
			}
			for i := 0; i < pending; i++ {
				k.Schedule(gaps[i], h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}

// BenchmarkScheduleCancel: schedule + cancel per op over a 64-event
// standing population — the wake-timer pattern of event-driven ctsim.
func BenchmarkScheduleCancel(b *testing.B) {
	k := New()
	s := rng.New(1)
	fn := func(float64) {}
	var standing [64]Ref
	for i := range standing {
		standing[i], _ = k.Schedule(s.Float64()*100, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 63
		k.Cancel(standing[j])
		standing[j], _ = k.Schedule(k.Now()+s.Float64()*100, fn)
	}
}
