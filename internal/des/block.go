package des

import "fmt"

// Freelist recycles the state machines continuation-form code keeps for
// its operations in flight, so steady-state operations allocate nothing.
// A machine binds its continuations once, in alloc, and zeroes its
// per-use state before Put. A Freelist belongs to one engine's entities
// (a device, a fabric, a file system), so sharded runs never share one.
// It keeps at most freelistCap idle machines: a burst of concurrent
// operations, such as every rank of a scale run writing at once, is
// returned to the garbage collector rather than retained for the life of
// the simulation.
type Freelist[T any] []*T

const freelistCap = 32

// Get pops an idle machine, or returns alloc() when none is idle.
func (f *Freelist[T]) Get(alloc func() *T) *T {
	if n := len(*f) - 1; n >= 0 {
		x := (*f)[n]
		*f = (*f)[:n]
		return x
	}
	return alloc()
}

// Put returns an idle machine.
func (f *Freelist[T]) Put(x *T) {
	if len(*f) < freelistCap {
		*f = append(*f, x)
	}
}

// bridge is the EventProc a goroutine proc runs its Block bodies on. A
// proc has at most one Block in flight, so one bridge per proc suffices
// and is reused by every later call.
type bridge struct {
	p     *Proc
	ep    EventProc
	state uint8
	k     func() // resume, bound once
}

// Bridge states.
const (
	bridgeIdle    = iota
	bridgeRunning // body is running on the proc's own goroutine
	bridgeParked  // the proc is parked until k runs
)

// Block runs body, a continuation-form operation, for goroutine proc p and
// returns once body's continuation k has run — a blocking call written as
// a veneer over its continuation form:
//
//	des.Block(p, func(ep *des.EventProc, k func()) { f.TransferE(ep, src, dst, n, k) })
//
// body runs at once on a bridge EventProc owned by p and not counted in
// LiveProcs, since p is; a body that never calls k leaves p blocked and
// counted. If k runs before body returns, Block returns without yielding.
// Otherwise p parks, and k resumes it by a direct goroutine handoff inside
// the event that ran k: no event is added, and p continues at the same
// time and place in the event order as if it had blocked itself. Call
// Block from p's goroutine; k must run at most once, as the last action of
// its step.
func Block(p *Proc, body func(ep *EventProc, k func())) {
	b := p.bridge
	if b == nil {
		b = &bridge{p: p, ep: EventProc{eng: p.eng, pid: p.pid, name: p.name, live: true, bridge: true}}
		b.k = b.resume
		p.bridge = b
	}
	if b.state != bridgeIdle {
		panic(fmt.Sprintf("des: nested Block in proc %s", p.name))
	}
	b.state = bridgeRunning
	body(&b.ep, b.k)
	if b.state == bridgeRunning {
		b.state = bridgeParked
		p.block()
	}
}

// resume is the k handed to a Block body: it ends the Block, inline when
// the body is still running and by handing control to the parked proc
// otherwise. The handoff returns once the proc blocks again or finishes.
func (b *bridge) resume() {
	switch b.state {
	case bridgeRunning:
		b.state = bridgeIdle
	case bridgeParked:
		b.state = bridgeIdle
		b.p.resume <- struct{}{}
		<-b.p.eng.yield
	default:
		panic(fmt.Sprintf("des: Block continuation of proc %s ran twice", b.p.name))
	}
}
