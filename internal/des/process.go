package des

import "fmt"

// Proc is a simulated process: a goroutine that advances only when the
// engine resumes it. All blocking primitives (Wait, Resource.Acquire,
// Queue.Get, Signal.Wait) must be called from the process's own goroutine.
type Proc struct {
	eng    *Engine
	pid    int
	name   string
	resume chan struct{}
	done   bool
	bridge *bridge // created by the first Block
}

// Spawn starts fn as a new simulated process at the current time.
// The name appears in deadlock diagnostics.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, pid: e.nextPID, name: name, resume: make(chan struct{})}
	e.nextPID++
	e.procs++
	e.schedule(e.now, func() { p.start(fn) }, nil)
	return p
}

// SpawnAt starts fn as a new simulated process after delay d.
func (e *Engine) SpawnAt(d Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, pid: e.nextPID, name: name, resume: make(chan struct{})}
	e.nextPID++
	e.procs++
	e.schedule(e.now+d, func() { p.start(fn) }, nil)
	return p
}

func (p *Proc) start(fn func(p *Proc)) {
	go func() {
		defer func() {
			p.done = true
			p.eng.procs--
			// Return control to the engine loop.
			p.eng.yield <- struct{}{}
		}()
		fn(p)
	}()
	<-p.eng.yield // wait until the process blocks or finishes
}

// block suspends the process goroutine, returning control to the engine.
// It resumes when something calls p.wake (via a scheduled event).
func (p *Proc) block() {
	p.eng.yield <- struct{}{}
	<-p.resume
}

// wakeAt schedules the process to continue at time at. The wake is a
// proc-carrying pooled event — no closure, no allocation — that the engine
// loop dispatches as a direct goroutine handoff.
func (p *Proc) wakeAt(at Time) {
	p.eng.schedule(at, nil, p)
}

// wakeNow schedules the process to continue at the current time (after
// currently dispatching event completes).
func (p *Proc) wakeNow() { p.wakeAt(p.eng.now) }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// PID returns the unique process id.
func (p *Proc) PID() int { return p.pid }

// Wait advances simulated time by d for this process.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative wait %v in proc %s", d, p.name))
	}
	p.wakeAt(p.eng.now + d)
	p.block()
}

// WaitUntil advances simulated time to absolute time at (no-op if at is in
// the past).
func (p *Proc) WaitUntil(at Time) {
	if at <= p.eng.now {
		return
	}
	p.wakeAt(at)
	p.block()
}

// Signal is a broadcast condition: processes wait on it and a later Fire
// releases all current waiters. A Signal can be reused after firing.
// Waiters of both execution forms share one list and are released in
// strict arrival order.
type Signal struct {
	eng     *Engine
	waiters []waiter
}

// NewSignal creates a Signal bound to engine e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait blocks the calling process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, waiter{p: p})
	p.block()
}

// WaitE is the continuation form of Wait: k runs when the next Fire
// releases the signal.
func (s *Signal) WaitE(ep *EventProc, k func()) {
	ep.arm(k)
	s.waiters = append(s.waiters, waiter{ep: ep})
}

// Fire releases all processes currently waiting on the signal.
// Safe to call from process or event context. A wake only schedules, so
// no waiter can rejoin during the loop and the list's array is reused.
func (s *Signal) Fire() {
	for i, w := range s.waiters {
		w.wake()
		s.waiters[i] = waiter{}
	}
	s.waiters = s.waiters[:0]
}

// NumWaiters reports how many processes are blocked on the signal.
func (s *Signal) NumWaiters() int { return len(s.waiters) }

// WaitGroup counts down to zero and then releases waiters, mirroring
// sync.WaitGroup for simulated processes.
type WaitGroup struct {
	eng   *Engine
	n     int
	doneS *Signal
}

// NewWaitGroup creates a WaitGroup bound to engine e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{eng: e, doneS: NewSignal(e)} }

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("des: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.doneS.Fire()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.doneS.Wait(p)
	}
}

// WaitE is the continuation form of Wait: k runs once the counter reaches
// zero, synchronously when it already is (matching Wait's no-yield fast
// path), re-checking across Fires exactly like the goroutine form's loop.
func (wg *WaitGroup) WaitE(ep *EventProc, k func()) {
	if wg.n == 0 {
		k()
		return
	}
	wg.doneS.WaitE(ep, func() { wg.WaitE(ep, k) })
}
