// Package mpi simulates an MPI runtime on top of the discrete-event engine:
// ranks are simulated processes, point-to-point messages pay a latency +
// bandwidth (alpha-beta) cost, and collectives use logarithmic cost models.
// It is the middleware under the simulated MPI-IO layer (internal/mpiio)
// and the vehicle for all multi-rank workloads.
package mpi

import (
	"fmt"

	"pioeval/internal/des"
)

// Options configures the communication cost model.
type Options struct {
	// Alpha is the per-message latency.
	Alpha des.Time
	// BetaBps is the per-rank link bandwidth in bytes/second. All sends
	// are eager.
	BetaBps float64
}

// DefaultOptions returns an InfiniBand-like cost model: 1.5us latency,
// 10 GB/s bandwidth.
func DefaultOptions() Options {
	return Options{Alpha: 1500 * des.Nanosecond, BetaBps: 10e9}
}

// xferCost returns alpha + size/beta.
func (o Options) xferCost(size int64) des.Time {
	t := o.Alpha
	if o.BetaBps > 0 {
		t += des.Time(float64(size) / o.BetaBps * float64(des.Second))
	}
	return t
}

// World is an MPI communicator: a fixed set of ranks on one engine.
type World struct {
	eng  *des.Engine
	size int
	opts Options

	queues map[chanKey]*des.Queue[Message]

	// Barrier state. A barrier's release is in flight only while every
	// other rank waits on barSignal, so the world holds the continuation
	// of the one last arriver.
	barCount  int
	barSignal *des.Signal
	releaseK  func()
	releaseF  func()

	// Statistics.
	msgs      uint64
	bytesSent int64
}

type chanKey struct {
	src, dst, tag int
}

// Message is a received point-to-point message.
type Message struct {
	Src  int
	Tag  int
	Size int64
}

// NewWorld creates a communicator with size ranks.
func NewWorld(e *des.Engine, size int, opts Options) *World {
	if size < 1 {
		panic("mpi: world size must be >= 1")
	}
	w := &World{
		eng:       e,
		size:      size,
		opts:      opts,
		queues:    make(map[chanKey]*des.Queue[Message]),
		barSignal: des.NewSignal(e),
	}
	w.releaseF = w.release
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Engine returns the simulation engine.
func (w *World) Engine() *des.Engine { return w.eng }

// Options returns the cost-model options.
func (w *World) Options() Options { return w.opts }

// Messages reports total point-to-point messages sent.
func (w *World) Messages() uint64 { return w.msgs }

// BytesSent reports total point-to-point payload bytes.
func (w *World) BytesSent() int64 { return w.bytesSent }

// Spawn launches fn once per rank as goroutine-form simulated processes
// (des.Proc). Call once; then run the engine.
func (w *World) Spawn(fn func(r *Rank)) {
	for i := 0; i < w.size; i++ {
		i := i
		w.eng.Spawn(fmt.Sprintf("rank%d", i), func(p *des.Proc) {
			fn(&Rank{w: w, id: i, p: p})
		})
	}
}

// SpawnEvent launches fn once per rank as continuation-form event
// processes (des.EventProc), so a rank costs one small struct instead of
// a goroutine stack. Call once; then run the engine. Event ranks and
// goroutine ranks may coexist in one World and exchange messages.
func (w *World) SpawnEvent(fn func(r *Rank)) {
	for i := 0; i < w.size; i++ {
		i := i
		w.eng.SpawnEvent(fmt.Sprintf("rank%d", i), func(ep *des.EventProc) {
			fn(&Rank{w: w, id: i, ep: ep})
		})
	}
}

func (w *World) queue(k chanKey) *des.Queue[Message] {
	q, ok := w.queues[k]
	if !ok {
		q = des.NewQueue[Message](w.eng, fmt.Sprintf("mpi.%d.%d.%d", k.src, k.dst, k.tag))
		w.queues[k] = q
	}
	return q
}

// Rank is one MPI process in either execution form: a goroutine rank
// (World.Spawn) or an event rank (World.SpawnEvent). The continuation
// methods (ComputeE, SendE, RecvE, BarrierE, AllgatherE) are the one
// implementation of every operation; the blocking methods are veneers
// over them, via des.Block. A goroutine rank calls the blocking methods
// and an event rank the continuation methods, always from the rank's own
// process. A rank has at most one operation in flight, so the rank itself
// holds that operation's state.
type Rank struct {
	w  *World
	id int
	p  *des.Proc // nil for an event rank
	// ep runs the continuation steps: the rank's own event process, or
	// the goroutine rank's des.Block bridge.
	ep *des.EventProc

	k   func() // continuation of the operation in flight
	ops *rankOps
}

// rankOps is the state of a rank's point-to-point and allgather
// operations, allocated with its continuations on first use, so a rank
// that only computes and crosses barriers (every rank of a scale run)
// allocates nothing beyond the Rank itself.
type rankOps struct {
	msg              Message // the message sent, or received by Recv
	dst              int
	gatheredF, sentF func()
	recvF            func(Message)
}

func (r *Rank) opState() *rankOps {
	if r.ops == nil {
		r.ops = &rankOps{}
		r.ops.gatheredF, r.ops.sentF, r.ops.recvF = r.gathered, r.sent, r.received
	}
	return r.ops
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.w.size }

// Proc returns the goroutine process of a goroutine rank, or nil for an
// event rank.
func (r *Rank) Proc() *des.Proc { return r.p }

// EventProc returns the event process of an event rank, or nil for a
// goroutine rank.
func (r *Rank) EventProc() *des.EventProc {
	if r.p != nil {
		return nil
	}
	return r.ep
}

// Now returns the current simulated time.
func (r *Rank) Now() des.Time { return r.w.eng.Now() }

// block runs the continuation-form op body for a goroutine rank and
// returns once the op completes.
func (r *Rank) block(body func(k func())) {
	des.Block(r.p, func(ep *des.EventProc, k func()) {
		r.ep = ep
		body(k)
	})
}

// done ends the operation in flight by running its continuation.
func (r *Rank) done() {
	k := r.k
	r.k = nil
	k()
}

// ComputeE advances simulated time by d (models computation), then runs k.
func (r *Rank) ComputeE(d des.Time, k func()) { r.ep.Wait(d, k) }

// Compute is the blocking form of ComputeE.
func (r *Rank) Compute(d des.Time) {
	r.block(func(k func()) { r.ComputeE(d, k) })
}

// SendE transmits size bytes to dst with tag; the sender waits for the
// transfer cost (eager protocol), after which the message is available at
// the destination and k runs.
func (r *Rank) SendE(dst, tag int, size int64, k func()) {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	o := r.opState()
	r.k, o.dst, o.msg = k, dst, Message{Src: r.id, Tag: tag, Size: size}
	r.ep.Wait(r.w.opts.xferCost(size), o.sentF)
}

// sent delivers the message of the send in flight.
func (r *Rank) sent() {
	w, o := r.w, r.ops
	w.msgs++
	w.bytesSent += o.msg.Size
	w.queue(chanKey{r.id, o.dst, o.msg.Tag}).Put(o.msg)
	r.done()
}

// Send is the blocking form of SendE.
func (r *Rank) Send(dst, tag int, size int64) {
	r.block(func(k func()) { r.SendE(dst, tag, size, k) })
}

// RecvE waits until a message with the given source and tag arrives, then
// hands it to k.
func (r *Rank) RecvE(src, tag int, k func(Message)) {
	if src < 0 || src >= r.w.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	r.w.queue(chanKey{src, r.id, tag}).GetE(r.ep, k)
}

// Recv is the blocking form of RecvE.
func (r *Rank) Recv(src, tag int) Message {
	o := r.opState()
	r.block(func(k func()) {
		r.k = k
		r.RecvE(src, tag, o.recvF)
	})
	return o.msg
}

func (r *Rank) received(m Message) {
	r.ops.msg = m
	r.done()
}

// BarrierE synchronizes all ranks (of either execution form) and then
// runs k; the cost model adds a ceil(log2 P) latency term to the release.
func (r *Rank) BarrierE(k func()) { r.w.arrive(r.ep, k) }

// Barrier is the blocking form of BarrierE.
func (r *Rank) Barrier() {
	r.block(r.BarrierE)
}

// arrive enters the barrier for ep; k runs once every rank has arrived.
// Only release fires barSignal, once per barrier, so each waiting rank
// wakes exactly when its own barrier completes. The last rank to arrive
// pays the dissemination cost, ceil(log2 P) rounds of alpha, and then
// releases the others.
func (w *World) arrive(ep *des.EventProc, k func()) {
	w.barCount++
	if w.barCount < w.size {
		w.barSignal.WaitE(ep, k)
		return
	}
	w.barCount = 0
	w.releaseK = k
	ep.Wait(w.opts.Alpha*des.Time(ceilLog2(w.size)), w.releaseF)
}

func (w *World) release() {
	k := w.releaseK
	w.releaseK = nil
	w.barSignal.Fire()
	k()
}

// AllgatherE models gathering size bytes from every rank to every rank
// (ring algorithm: P-1 steps of size bytes), then a barrier, then runs k.
func (r *Rank) AllgatherE(size int64, k func()) {
	steps := r.w.size - 1
	if steps == 0 {
		r.BarrierE(k)
		return
	}
	r.k = k
	r.ep.Wait(des.Time(steps)*r.w.opts.xferCost(size), r.opState().gatheredF)
}

func (r *Rank) gathered() {
	k := r.k
	r.k = nil
	r.BarrierE(k)
}

// Allgather is the blocking form of AllgatherE.
func (r *Rank) Allgather(size int64) {
	r.block(func(k func()) { r.AllgatherE(size, k) })
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	l, v := 0, 1
	for v < n {
		v <<= 1
		l++
	}
	return l
}
