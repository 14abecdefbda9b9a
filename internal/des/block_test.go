package des

import (
	"strings"
	"testing"
)

// TestBlockSynchronousBodyDoesNotYield checks that a body that calls k
// before returning makes Block return inline: no dispatch, no yield to
// the same-time event queued before it.
func TestBlockSynchronousBodyDoesNotYield(t *testing.T) {
	e := NewEngine(1)
	var ran, checked bool
	e.Spawn("p", func(p *Proc) {
		e.After(0, func() { ran = true })
		before := e.Dispatches()
		Block(p, func(ep *EventProc, k func()) { k() })
		if got := e.Dispatches(); got != before {
			t.Errorf("synchronous Block dispatched %d events", got-before)
		}
		if ran {
			t.Error("synchronous Block yielded to a queued event")
		}
		checked = true
	})
	e.Run(MaxTime)
	if !checked || !ran {
		t.Fatalf("checked=%v ran=%v, want both", checked, ran)
	}
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after run, want 0", n)
	}
}

// TestBlockMatchesSpawnEvent runs one contended continuation body once
// through Block from a goroutine proc and once on a SpawnEvent proc: both
// must finish at the same simulated time after the same dispatch count,
// and Block must resume its proc inside the event that ran k.
func TestBlockMatchesSpawnEvent(t *testing.T) {
	// body holds r for 3ms after a 1ms wait; a rival holds r from 0 to
	// 2ms, so the acquire queues and the wake goes through the FIFO.
	body := func(r *Resource, ep *EventProc, k func()) {
		ep.Wait(Millisecond, func() {
			r.AcquireE(ep, func() {
				ep.Wait(3*Millisecond, func() {
					r.Release()
					k()
				})
			})
		})
	}
	run := func(blocking bool) (end Time, dispatches uint64) {
		e := NewEngine(1)
		r := NewResource(e, "r", 1)
		e.Spawn("rival", func(p *Proc) {
			r.Acquire(p)
			p.Wait(2 * Millisecond)
			r.Release()
		})
		if blocking {
			e.Spawn("p", func(p *Proc) {
				Block(p, func(ep *EventProc, k func()) { body(r, ep, k) })
				end, dispatches = p.Now(), e.Dispatches()
			})
		} else {
			e.SpawnEvent("ep", func(ep *EventProc) {
				body(r, ep, func() { end, dispatches = ep.Now(), e.Dispatches() })
			})
		}
		e.Run(MaxTime)
		if e.Dispatches() != dispatches {
			t.Errorf("blocking=%v: %d events ran after the body finished", blocking, e.Dispatches()-dispatches)
		}
		if n := e.LiveProcs(); n != 0 {
			t.Errorf("blocking=%v: LiveProcs = %d after run, want 0", blocking, n)
		}
		return end, dispatches
	}
	bEnd, bN := run(true)
	eEnd, eN := run(false)
	if bEnd != 5*Millisecond || bEnd != eEnd {
		t.Errorf("end: Block %v, SpawnEvent %v, want both 5ms", bEnd, eEnd)
	}
	if bN != eN {
		t.Errorf("dispatches: Block %d, SpawnEvent %d", bN, eN)
	}
}

// TestBlockLiveProcsBalance checks that the bridge is never counted: the
// count is the procs alone during a run of many parked Blocks and zero
// after it, while a proc stuck inside Block stays counted.
func TestBlockLiveProcsBalance(t *testing.T) {
	e := NewEngine(1)
	const procs, calls = 20, 50
	for i := 0; i < procs; i++ {
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < calls; j++ {
				Block(p, func(ep *EventProc, k func()) { ep.Wait(Time(j%3+1), k) })
				if n := e.LiveProcs(); n > procs {
					t.Errorf("LiveProcs = %d inside the run, want <= %d", n, procs)
				}
			}
		})
	}
	e.Run(MaxTime)
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after %d Blocks, want 0", n, procs*calls)
	}

	stuck := NewSignal(e)
	e.Spawn("stuck", func(p *Proc) {
		Block(p, func(ep *EventProc, k func()) { stuck.WaitE(ep, k) })
		t.Error("Block returned without its continuation")
	})
	e.Run(MaxTime)
	if n := e.LiveProcs(); n != 1 {
		t.Fatalf("LiveProcs = %d with a proc deadlocked in Block, want 1", n)
	}
}

// TestBlockAgainAfterResume checks that a proc can Block again at once
// after a resume, while the handoff that resumed it is still on the
// engine loop's stack, and that a nested Block panics.
func TestBlockAgainAfterResume(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			Block(p, func(ep *EventProc, k func()) { ep.Wait(Millisecond, k) })
			times = append(times, p.Now())
		}
		Block(p, func(ep *EventProc, k func()) { k() })
		times = append(times, p.Now())
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "nested Block") {
				t.Errorf("nested Block: recovered %v", r)
			}
		}()
		Block(p, func(ep *EventProc, k func()) { Block(p, func(*EventProc, func()) {}) })
	})
	e.Run(MaxTime)
	want := []Time{Millisecond, 2 * Millisecond, 3 * Millisecond, 3 * Millisecond}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

// TestBlockSteadyStateAllocs pins a parked Block round trip at zero
// allocations once the bridge exists.
func TestBlockSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	var allocs float64
	e.Spawn("p", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			Block(p, func(ep *EventProc, k func()) { ep.Wait(1, k) })
		})
	})
	e.Run(MaxTime)
	if allocs != 0 {
		t.Fatalf("Block round trip: %v allocs, want 0", allocs)
	}
}

// TestFreelistRecyclesUpToCap: Get reuses idle machines before calling
// alloc, and a burst larger than freelistCap is not retained.
func TestFreelistRecyclesUpToCap(t *testing.T) {
	var f Freelist[int]
	allocs := 0
	alloc := func() *int { allocs++; return new(int) }
	burst := make([]*int, 3*freelistCap)
	for i := range burst {
		burst[i] = f.Get(alloc)
	}
	for _, x := range burst {
		f.Put(x)
	}
	if len(f) != freelistCap {
		t.Fatalf("freelist keeps %d idle machines, want the cap %d", len(f), freelistCap)
	}
	for i := 0; i < freelistCap; i++ {
		f.Get(alloc)
	}
	if allocs != len(burst) {
		t.Fatalf("%d allocs, want %d: idle machines must be reused", allocs, len(burst))
	}
}
