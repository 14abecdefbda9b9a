// Package netsim models cluster network fabrics for the I/O-path simulator.
//
// A Fabric is a set of nodes connected through per-node links (NIC injection
// bandwidth) and an aggregate backplane. Message cost = per-hop latency +
// serialization time on the sender link, the backplane, and the receiver
// link, with contention modeled by FIFO queueing on each resource. Two
// presets mirror Figure 1 of the paper: an InfiniBand-like compute fabric
// and a slower Ethernet-like storage fabric.
package netsim

import (
	"fmt"

	"pioeval/internal/des"
)

// Bandwidth is bytes per second.
type Bandwidth float64

// Common bandwidth units.
const (
	KBps Bandwidth = 1e3
	MBps Bandwidth = 1e6
	GBps Bandwidth = 1e9
)

// transferTime returns the serialization delay for size bytes at bw.
func transferTime(size int64, bw Bandwidth) des.Time {
	if bw <= 0 {
		return 0
	}
	return des.Time(float64(size) / float64(bw) * float64(des.Second))
}

// Config describes a fabric.
type Config struct {
	Name string
	// Latency is the one-way propagation + switching latency per message.
	Latency des.Time
	// LinkBandwidth is each node's NIC injection/ejection bandwidth.
	LinkBandwidth Bandwidth
	// BackplaneBandwidth caps aggregate traffic; 0 means unconstrained.
	BackplaneBandwidth Bandwidth
	// BackplaneChannels is the parallelism of the backplane resource
	// (number of concurrent full-rate transfers). Default 1 when a
	// backplane bandwidth is set.
	BackplaneChannels int
	// MTU splits messages into packets for pipelining; 0 disables
	// packetization (whole message serializes as one unit).
	MTU int64
}

// InfiniBandLike returns a config resembling an EDR InfiniBand compute
// fabric: ~1us latency, 12 GB/s links.
func InfiniBandLike() Config {
	return Config{
		Name:               "ib",
		Latency:            1 * des.Microsecond,
		LinkBandwidth:      12 * GBps,
		BackplaneBandwidth: 0,
	}
}

// EthernetLike returns a config resembling a 10 GbE storage fabric:
// ~20us latency, 1.25 GB/s links.
func EthernetLike() Config {
	return Config{
		Name:               "eth",
		Latency:            20 * des.Microsecond,
		LinkBandwidth:      1.25 * GBps,
		BackplaneBandwidth: 0,
	}
}

// Fabric is an instantiated network. Create with NewFabric, then AddNode for
// every endpoint.
type Fabric struct {
	eng       *des.Engine
	cfg       Config
	nodes     map[string]*endpoint
	backplane *des.Resource

	bytesMoved int64
	messages   uint64

	free des.Freelist[transferE]

	// degradation >= 1 multiplies latency and serialization times
	// (fault injection: failing links, congested uplinks).
	degradation float64
}

type endpoint struct {
	name string
	in   *des.Resource // ejection (receive) link
	out  *des.Resource // injection (send) link
}

// NewFabric creates a fabric on engine e with config cfg.
func NewFabric(e *des.Engine, cfg Config) *Fabric {
	f := &Fabric{eng: e, cfg: cfg, nodes: make(map[string]*endpoint)}
	if cfg.BackplaneBandwidth > 0 {
		ch := cfg.BackplaneChannels
		if ch < 1 {
			ch = 1
		}
		f.backplane = des.NewResource(e, cfg.Name+".backplane", ch)
	}
	return f
}

// AddNode registers a new endpoint; it panics on duplicates.
func (f *Fabric) AddNode(name string) {
	if _, dup := f.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	f.nodes[name] = &endpoint{
		name: name,
		in:   des.NewResource(f.eng, f.cfg.Name+"."+name+".in", 1),
		out:  des.NewResource(f.eng, f.cfg.Name+"."+name+".out", 1),
	}
}

// HasNode reports whether name is registered.
func (f *Fabric) HasNode(name string) bool {
	_, ok := f.nodes[name]
	return ok
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetDegradation degrades every transfer on the fabric by factor (>= 1;
// 1 restores nominal). Fault injection for failing or congested links.
func (f *Fabric) SetDegradation(factor float64) error {
	if factor < 1 {
		return fmt.Errorf("netsim: %s: degradation factor %g invalid, must be >= 1", f.cfg.Name, factor)
	}
	f.degradation = factor
	return nil
}

// Degradation returns the current link degradation factor (1 = nominal).
func (f *Fabric) Degradation() float64 {
	if f.degradation < 1 {
		return 1
	}
	return f.degradation
}

// scaled applies the degradation factor to a duration.
func (f *Fabric) scaled(t des.Time) des.Time {
	if f.degradation > 1 {
		return des.Time(float64(t) * f.degradation)
	}
	return t
}

// Transfer moves size bytes from src to dst in simulated time, blocking the
// calling process for the full transfer duration: TransferE run through
// des.Block.
func (f *Fabric) Transfer(p *des.Proc, src, dst string, size int64) {
	des.Block(p, func(ep *des.EventProc, k func()) { f.TransferE(ep, src, dst, size, k) })
}

// transferE is the state machine behind TransferE: one chunk cycle is
// acquire sender link -> (acquire backplane) -> acquire receiver link ->
// hold for the serialization time -> release in reverse order -> next
// chunk. Machines are recycled through the fabric's freelist with their
// continuations bound once, so a steady-state transfer allocates nothing.
type transferE struct {
	f      *Fabric
	ep     *des.EventProc
	s, d   *endpoint
	remain int64
	chunk  int64
	n      int64    // current chunk size
	t      des.Time // current chunk serialization time
	k      func()

	stepF, afterOutF, afterInF, holdF, doneF func()
}

func (f *Fabric) newTransfer() *transferE {
	t := &transferE{f: f}
	t.stepF = t.step
	t.afterOutF = t.afterOut
	t.afterInF = t.afterIn
	t.holdF = t.hold
	t.doneF = t.done
	return t
}

func (t *transferE) step() {
	if t.remain <= 0 {
		k := t.k
		t.ep, t.s, t.d, t.k = nil, nil, nil, nil
		t.f.free.Put(t)
		k()
		return
	}
	t.n = t.chunk
	if t.n > t.remain {
		t.n = t.remain
	}
	t.s.out.AcquireE(t.ep, t.afterOutF)
}

// afterOut holds the sender link: compute the chunk cost and take the
// backplane when present.
func (t *transferE) afterOut() {
	t.t = t.f.scaled(transferTime(t.n, t.f.cfg.LinkBandwidth))
	if t.f.backplane != nil {
		t.f.backplane.AcquireE(t.ep, t.afterInF)
		return
	}
	t.afterIn()
}

// afterIn holds everything up to the receiver link: apply the backplane
// cost and take the receiver link.
func (t *transferE) afterIn() {
	if t.f.backplane != nil {
		if bt := t.f.scaled(transferTime(t.n, t.f.cfg.BackplaneBandwidth)); bt > t.t {
			t.t = bt
		}
	}
	t.d.in.AcquireE(t.ep, t.holdF)
}

// hold serializes the chunk on every link it holds.
func (t *transferE) hold() { t.ep.Wait(t.t, t.doneF) }

func (t *transferE) done() {
	t.d.in.Release()
	if t.f.backplane != nil {
		t.f.backplane.Release()
	}
	t.s.out.Release()
	t.remain -= t.n
	t.step()
}

// TransferE moves size bytes from src to dst in simulated time and runs k
// on completion, using the calling EventProc for all queueing: per-hop
// latency, then each MTU chunk serialized with queueing on both links and
// the backplane.
func (f *Fabric) TransferE(ep *des.EventProc, src, dst string, size int64, k func()) {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	s, ok := f.nodes[src]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown src node %q", src))
	}
	d, ok := f.nodes[dst]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown dst node %q", dst))
	}
	f.messages++
	f.bytesMoved += size
	if src == dst {
		// Loopback: memcpy-speed, modeled as half latency.
		ep.Wait(f.scaled(f.cfg.Latency/2), k)
		return
	}
	// Packetized pipelining: the dominant cost is max of the three stages
	// plus one latency; we approximate by serializing each chunk through
	// sender link then receiver link, holding the backplane if present.
	chunk := f.cfg.MTU
	if chunk <= 0 || chunk > size {
		chunk = size
	}
	t := f.free.Get(f.newTransfer)
	t.ep, t.s, t.d, t.remain, t.chunk, t.k = ep, s, d, size, chunk, k
	ep.Wait(f.scaled(f.cfg.Latency), t.stepF)
}

// RTT returns the zero-payload round-trip time estimate (2x latency).
func (f *Fabric) RTT() des.Time { return 2 * f.cfg.Latency }

// BytesMoved reports total payload bytes transferred so far.
func (f *Fabric) BytesMoved() int64 { return f.bytesMoved }

// Messages reports total transfers so far.
func (f *Fabric) Messages() uint64 { return f.messages }

// LinkUtilization returns the send-link utilization of node name in [0,1].
func (f *Fabric) LinkUtilization(name string) float64 {
	ep, ok := f.nodes[name]
	if !ok {
		return 0
	}
	return ep.out.Utilization()
}
