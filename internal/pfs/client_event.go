package pfs

import (
	"fmt"

	"pioeval/internal/blockdev"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
)

// This file is the client's one data path: the continuation-form
// (E-suffixed) operations, which the blocking methods in client.go run
// through des.Block. Every operation in flight is a state machine —
// metaOp, dataOp, rpcOp, and call for a blocking veneer — recycled through
// a des.Freelist on its FS with its continuations bound once, so a
// steady-state operation allocates no closures. A machine zeroes its
// embedded per-use state and frees itself before it runs its caller's
// continuation, which is always its last action.

// hops moves bytes between a client and a server, crossing the
// I/O-forwarding tier when present. The second hop waits in the struct,
// and its continuation is bound once by the owning machine.
type hops struct {
	ep       *des.EventProc
	f        *netsim.Fabric
	src, dst string
	size     int64
	k        func()
	secondF  func()
}

func (hp *hops) second() { hp.f.TransferE(hp.ep, hp.src, hp.dst, hp.size, hp.k) }

// toServerE moves size bytes from the client to server on hp.ep, then
// runs k.
func (c *Client) toServerE(hp *hops, server string, size int64, k func()) {
	if c.ionode == "" {
		c.fs.compute.TransferE(hp.ep, c.node, server, size, k)
		return
	}
	hp.f, hp.src, hp.dst, hp.size, hp.k = c.fs.storage, c.ionode, server, size, k
	c.fs.compute.TransferE(hp.ep, c.node, c.ionode, size, hp.secondF)
}

// fromServerE moves size bytes from server back to the client on hp.ep,
// then runs k.
func (c *Client) fromServerE(hp *hops, server string, size int64, k func()) {
	if c.ionode == "" {
		c.fs.compute.TransferE(hp.ep, server, c.node, size, k)
		return
	}
	hp.f, hp.src, hp.dst, hp.size, hp.k = c.fs.compute, c.ionode, c.node, size, k
	c.fs.storage.TransferE(hp.ep, server, c.ionode, size, hp.secondF)
}

// timeout runs k once an unanswered RPC is declared dead: after the
// policy's RPC timeout, or at once when that is 0.
func (c *Client) timeout(ep *des.EventProc, k func()) {
	if t := c.fs.cfg.Resilience.RPCTimeout; t > 0 {
		ep.Wait(t, k)
		return
	}
	k()
}

// retry applies the resilience policy to a settled attempt: a retryable
// *err with budget left is cleared and attempt again runs after the
// backoff, and retry reports true; otherwise *err is final, an exhausted
// budget is counted, and retry reports false.
func (c *Client) retry(ep *des.EventProc, err *error, attempt *int, again func()) bool {
	if *err == nil || !retryable(*err) {
		return false
	}
	pol := c.fs.cfg.Resilience
	if *attempt >= pol.MaxRetries {
		c.stats.FailedRPCs++
		return false
	}
	c.stats.Retries++
	*err = nil
	ep.Wait(pol.backoff(c.fs.eng, *attempt), again)
	*attempt++
	return true
}

// metaOp is one metadata RPC: its namespace arguments, its retry state and
// its results. The MDS applies the change by kind (FS.apply), so the op
// carries no closure.
type metaOp struct {
	metaState
	hp hops

	tryF, sentF, timedOutF, admittedF, servedF, settleF, doneF, openedF func()
}

type metaState struct {
	c           *Client
	ep          *des.EventProc
	op          MetaOp
	path        string
	stripeCount int   // OpCreate
	stripeSize  int64 // OpCreate
	end         int64 // OpSetSize: the new end of file
	attempt     int

	start des.Time

	// Results, final when k runs.
	err    error
	layout Layout   // OpCreate, OpOpen
	h      *Handle  // OpCreate, OpOpen
	info   FileInfo // OpStat
	names  []string // OpReaddir

	k  func()
	hk func(*Handle, error) // CreateE, OpenE
}

func newMetaOp() *metaOp {
	m := &metaOp{}
	m.hp.secondF = m.hp.second
	m.tryF = m.try
	m.sentF = m.sent
	m.timedOutF = m.timedOut
	m.admittedF = m.admitted
	m.servedF = m.served
	m.settleF = m.settle
	m.doneF = m.done
	m.openedF = m.opened
	return m
}

func (fs *FS) newMeta(c *Client, op MetaOp, path string) *metaOp {
	m := fs.metaFree.Get(newMetaOp)
	m.c, m.op, m.path = c, op, path
	return m
}

// freeMeta recycles m once its results have been read; nil is ignored.
func (fs *FS) freeMeta(m *metaOp) {
	if m != nil {
		m.metaState = metaState{}
		fs.metaFree.Put(m)
	}
}

// metaRPCE performs metadata op m on ep under the resilience policy: an
// unavailable MDS leaves the request unanswered, the client times out and
// retries with exponential backoff until the policy's budget is
// exhausted. Namespace errors (ErrExist, ...) are final and never
// retried — the operation did run, it just failed. m.k runs when the
// outcome is final.
func (c *Client) metaRPCE(ep *des.EventProc, m *metaOp) {
	m.ep, m.hp.ep, m.start = ep, ep, ep.Now()
	m.try()
}

func (m *metaOp) try() {
	c := m.c
	c.stats.MetaRPCs++
	c.stats.BytesSent += metaReqSize
	c.toServerE(&m.hp, c.fs.mds.node, metaReqSize, m.sentF)
}

func (m *metaOp) sent() {
	fs := m.c.fs
	if fs.mds.down {
		// No response: the RPC dies on the simulated timeout.
		m.c.timeout(m.ep, m.timedOutF)
		return
	}
	fs.mds.threads.AcquireE(m.ep, m.admittedF)
}

func (m *metaOp) timedOut() {
	m.c.stats.TimedOutRPCs++
	m.err = ErrMDSUnavailable
	m.settle()
}

// admitted holds an MDS thread: pay the op's CPU cost.
func (m *metaOp) admitted() { m.ep.Wait(m.c.fs.mds.opCost, m.servedF) }

// served applies the op to the namespace and sends the reply.
func (m *metaOp) served() {
	c := m.c
	md := c.fs.mds
	md.threads.Release()
	md.ops[m.op]++
	md.busy += md.opCost
	m.err = c.fs.apply(m)
	c.stats.BytesRecv += metaRespSize
	c.fromServerE(&m.hp, md.node, metaRespSize, m.settleF)
}

// settle retries a retryable failure while the budget lasts; otherwise
// the outcome is final. A directory listing then pays for its payload,
// ~64 bytes per entry.
func (m *metaOp) settle() {
	c := m.c
	if c.retry(m.ep, &m.err, &m.attempt, m.tryF) {
		return
	}
	if m.op == OpReaddir && m.err == nil && len(m.names) > 0 {
		c.fromServerE(&m.hp, c.fs.mds.node, int64(len(m.names))*64, m.doneF)
		return
	}
	m.done()
}

// done reports the op to the observer (a size update is internal to a
// write), opens the handle of a successful create or open, and runs k.
func (m *metaOp) done() {
	c := m.c
	if m.op != OpSetSize {
		c.fs.observe(OpEvent{Client: c.node, Op: m.op.String(), Path: m.path, Size: int64(len(m.names)), Start: m.start, End: m.ep.Now()})
	}
	if m.err == nil && (m.op == OpCreate || m.op == OpOpen) {
		m.h = &Handle{c: c, path: m.path, layout: m.layout}
	}
	m.k()
}

func (m *metaOp) opened() {
	k, h, err := m.hk, m.h, m.err
	m.c.fs.freeMeta(m)
	k(h, err)
}

// CreateE makes a new file with the given striping (0 values select the
// file-system defaults) and hands the open handle (or the error) to k.
func (c *Client) CreateE(ep *des.EventProc, path string, stripeCount int, stripeSize int64, k func(*Handle, error)) {
	path, perr := cleanPath(path)
	if perr != nil {
		k(nil, perr)
		return
	}
	m := c.fs.newMeta(c, OpCreate, path)
	m.stripeCount, m.stripeSize, m.hk, m.k = stripeCount, stripeSize, k, m.openedF
	c.metaRPCE(ep, m)
}

// OpenE opens an existing file and hands the handle (or the error) to k.
func (c *Client) OpenE(ep *des.EventProc, path string, k func(*Handle, error)) {
	path, perr := cleanPath(path)
	if perr != nil {
		k(nil, perr)
		return
	}
	m := c.fs.newMeta(c, OpOpen, path)
	m.hk, m.k = k, m.openedF
	c.metaRPCE(ep, m)
}

// dataOp is one client data operation (write, read, fsync or close): the
// RPC fan-out over the stripes, the join, the size update after a write,
// and the observer event.
type dataOp struct {
	dataState
	chunks []chunk     // striping scratch, reused
	joined *des.Signal // fired by the last RPC to finish

	joinedF, sizedF func()
}

type dataState struct {
	h     *Handle
	ep    *des.EventProc
	op    string // observed operation name
	off   int64  // observed extent
	size  int64
	start des.Time
	write bool
	fetch int64 // reads: the readahead window fetched from off
	end   int64 // writes: the end of file published at the MDS
	meta  *metaOp

	pending            int // RPCs launched and not yet finished
	requested, missing int64
	firstErr           error // of the earliest-launched failed RPC
	firstIdx           int

	k func(error)
}

func (fs *FS) newData(h *Handle, ep *des.EventProc, op string, off, size int64, k func(error)) *dataOp {
	d := fs.dataFree.Get(func() *dataOp {
		d := &dataOp{joined: des.NewSignal(fs.eng)}
		d.joinedF = d.join
		d.sizedF = d.sized
		return d
	})
	d.h, d.ep, d.op, d.off, d.size, d.start, d.k = h, ep, op, off, size, ep.Now(), k
	return d
}

// issue launches the RPCs for [off, off+size): each stripe chunk split at
// MaxRPCSize, every RPC on its own event proc. Spawned procs start at a
// later event, so pending counts every RPC issued so far and numbers them
// in launch order. The caller then waits on joined.
func (d *dataOp) issue(off, size int64) {
	h := d.h
	fs := h.c.fs
	d.chunks = stripeChunks(d.chunks[:0], h.layout, off, size)
	for _, ch := range d.chunks {
		for ch.size > 0 {
			n := min(ch.size, fs.cfg.MaxRPCSize)
			r := fs.rpcFree.Get(newRPCOp)
			r.d, r.i, r.o = d, d.pending, fs.osts[h.layout.OSTs[ch.ostIdx]]
			r.obj, r.objOff, r.size, r.write = fmt.Sprintf("%s#%d", h.path, ch.ostIdx), ch.objOff, n, d.write
			d.pending++
			d.requested += n
			fs.eng.SpawnEvent("rpc", r.runF)
			ch.objOff += n
			ch.size -= n
		}
	}
}

// join runs once every RPC has finished. On failure the first
// (launch-order) error wins; for reads under a DegradedReads policy the
// healthy stripes still completed and the miss is reported as a
// *DegradedReadError with partial-data accounting.
func (d *dataOp) join() {
	h := d.h
	if err := d.firstErr; err != nil {
		if !d.write && h.c.fs.cfg.Resilience.DegradedReads {
			h.c.stats.DegradedReads++
			h.c.stats.BytesMissing += d.missing
			err = &DegradedReadError{Path: h.path, Requested: d.requested, Missing: d.missing, Cause: err}
		}
		d.finish(err)
		return
	}
	if d.write {
		// Grow the file size at the MDS (a size RPC, as Lustre clients
		// batch; modeled as one metadata op).
		d.meta = h.c.fs.newMeta(h.c, OpSetSize, h.path)
		d.meta.end, d.meta.k = d.end, d.sizedF
		h.c.metaRPCE(d.ep, d.meta)
		return
	}
	if d.fetch > 0 {
		h.raStart, h.raEnd, h.raValid = d.off, d.off+d.fetch, true
	}
	d.finish(nil)
}

func (d *dataOp) sized() {
	err := d.meta.err
	d.h.c.fs.freeMeta(d.meta)
	d.finish(err)
}

// finish reports the operation to the observer and hands err to k.
func (d *dataOp) finish(err error) {
	h := d.h
	if d.op == "close" {
		h.closed = true
	}
	h.c.fs.observe(OpEvent{Client: h.c.node, Op: d.op, Path: h.path, Offset: d.off, Size: d.size, Start: d.start, End: d.ep.Now()})
	k := d.k
	d.dataState = dataState{}
	h.c.fs.dataFree.Put(d)
	k(err)
}

// flush writes out all dirty extents. Buffered data is dropped whether or
// not the writeback succeeds — on failure it is lost, as with a real
// client cache, and the error surfaces to the caller.
func (d *dataOp) flush() {
	h := d.h
	d.write = true
	var total int64
	for _, ex := range h.dirty {
		d.issue(ex.off, ex.size)
		d.end = max(d.end, ex.off+ex.size)
		total += ex.size
	}
	h.dirty = h.dirty[:0]
	h.c.wbDirty -= total
	d.joined.WaitE(d.ep, d.joinedF)
}

// observeNow reports an operation that completed without simulated cost.
func (h *Handle) observeNow(ep *des.EventProc, op string, off, size int64) {
	h.c.fs.observe(OpEvent{Client: h.c.node, Op: op, Path: h.path, Offset: off, Size: size, Start: ep.Now(), End: ep.Now()})
}

// WriteE writes size bytes at offset off and hands the outcome to k. With
// write-behind enabled, data may be buffered and flushed later: buffered
// writes complete synchronously, and errors from a deferred flush surface
// on the WriteE, FsyncE or CloseE that triggers it. A closed handle
// returns ErrClosedHandle.
func (h *Handle) WriteE(ep *des.EventProc, off, size int64, k func(error)) {
	if h.closed {
		k(fmt.Errorf("%w: write %s", ErrClosedHandle, h.path))
		return
	}
	if size <= 0 {
		k(nil)
		return
	}
	h.raValid = false // writes invalidate the readahead window
	// The extent joins the write-behind buffer; without one (capacity 0)
	// it is flushed at once, alone.
	h.appendDirty(off, size)
	h.c.wbDirty += size
	if h.c.wbDirty < h.c.wbCapacity {
		h.observeNow(ep, "write", off, size)
		k(nil)
		return
	}
	h.c.fs.newData(h, ep, "write", off, size, k).flush()
}

// ReadE reads size bytes at offset off and hands the outcome to k. With
// readahead enabled, misses fetch an extended window and later reads
// within the window are served from client memory. Under a DegradedReads
// policy, a read spanning a crashed OST returns *DegradedReadError after
// fetching the reachable stripes; a closed handle returns ErrClosedHandle.
func (h *Handle) ReadE(ep *des.EventProc, off, size int64, k func(error)) {
	if h.closed {
		k(fmt.Errorf("%w: read %s", ErrClosedHandle, h.path))
		return
	}
	if size <= 0 {
		k(nil)
		return
	}
	ra := h.c.fs.cfg.ClientReadahead
	if ra > 0 && h.raValid && off >= h.raStart && off+size <= h.raEnd {
		// Cache hit: served from client memory at zero simulated cost.
		h.observeNow(ep, "read", off, size)
		k(nil)
		return
	}
	d := h.c.fs.newData(h, ep, "read", off, size, k)
	if ra > 0 {
		d.fetch = size + ra
	}
	d.issue(off, max(size, d.fetch))
	d.joined.WaitE(ep, d.joinedF)
}

// FsyncE flushes buffered writes and hands the outcome to k.
func (h *Handle) FsyncE(ep *des.EventProc, k func(error)) {
	if len(h.dirty) == 0 {
		h.observeNow(ep, "fsync", 0, 0)
		k(nil)
		return
	}
	h.c.fs.newData(h, ep, "fsync", 0, 0, k).flush()
}

// CloseE flushes and closes the handle. The handle is closed even when the
// final flush fails; the flush error is handed to k.
func (h *Handle) CloseE(ep *des.EventProc, k func(error)) {
	if h.closed {
		k(nil)
		return
	}
	if len(h.dirty) == 0 {
		h.closed = true
		h.observeNow(ep, "close", 0, 0)
		k(nil)
		return
	}
	h.c.fs.newData(h, ep, "close", 0, 0, k).flush()
}

// rpcOp is one OST-directed data RPC, run on its own event proc under the
// resilience policy: bounded retries with exponential backoff + jitter
// around single attempts.
type rpcOp struct {
	rpcState
	hp hops

	runF                                       func(*des.EventProc)
	tryF, sentF, timedOutF, accessedF, settleF func()
}

type rpcState struct {
	d       *dataOp
	i       int // launch order within d
	ep      *des.EventProc
	o       *ost
	obj     string
	objOff  int64
	size    int64
	write   bool
	attempt int
	err     error
}

func newRPCOp() *rpcOp {
	r := &rpcOp{}
	r.hp.secondF = r.hp.second
	r.runF = r.run
	r.tryF = r.try
	r.sentF = r.sent
	r.timedOutF = r.timedOut
	r.accessedF = r.accessed
	r.settleF = r.settle
	return r
}

func (r *rpcOp) run(ep *des.EventProc) {
	r.ep, r.hp.ep = ep, ep
	r.try()
}

// try is a single attempt: pay the request's network cost, then either
// service it at the OST or observe the failure mode — a crashed target
// never answers (timeout), and injected transient faults fail the request
// server-side with an error reply.
func (r *rpcOp) try() {
	c := r.d.h.c
	if r.write {
		c.stats.WriteRPCs++
		c.stats.BytesSent += r.size
		c.toServerE(&r.hp, r.o.ossNode, r.size, r.sentF)
		return
	}
	c.stats.ReadRPCs++
	c.stats.BytesSent += dataReqSize
	c.toServerE(&r.hp, r.o.ossNode, dataReqSize, r.sentF)
}

func (r *rpcOp) sent() {
	c, o := r.d.h.c, r.o
	fs := c.fs
	if o.down {
		c.timeout(r.ep, r.timedOutF)
		return
	}
	if rate := fs.transientRate; rate > 0 && fs.eng.RNG().Stream("pfs.transient").Float64() < rate {
		c.stats.BytesRecv += dataReqSize
		r.err = fmt.Errorf("%w: ost%d %s@%d+%d", ErrIO, o.id, r.obj, r.objOff, r.size)
		c.fromServerE(&r.hp, o.ossNode, dataReqSize, r.settleF) // error reply
		return
	}
	req := blockdev.Request{Offset: o.physOffset(r.obj, r.objOff), Size: r.size, Write: r.write}
	o.dev.AccessE(r.ep, req, r.accessedF)
}

func (r *rpcOp) timedOut() {
	r.d.h.c.stats.TimedOutRPCs++
	r.err = fmt.Errorf("%w: ost%d", ErrOSTDown, r.o.id)
	r.settle()
}

// accessed books the serviced request and sends the ack (writes) or the
// payload (reads).
func (r *rpcOp) accessed() {
	c, o := r.d.h.c, r.o
	if r.write {
		o.writeOps++
	} else {
		o.readOps++
	}
	if obs := c.fs.ostObserver; obs != nil {
		obs(OSTEvent{OST: o.id, Size: r.size, Write: r.write, At: r.ep.Now()})
	}
	reply := int64(dataReqSize)
	if !r.write {
		reply = r.size
	}
	c.stats.BytesRecv += reply
	c.fromServerE(&r.hp, o.ossNode, reply, r.settleF)
}

// settle retries a retryable failure while the budget lasts; otherwise it
// reports the outcome to the data op, releasing the join after the last
// RPC, and ends the RPC's event proc.
func (r *rpcOp) settle() {
	d := r.d
	if d.h.c.retry(r.ep, &r.err, &r.attempt, r.tryF) {
		return
	}
	if r.err != nil {
		d.missing += r.size
		if d.firstErr == nil || r.i < d.firstIdx {
			d.firstErr, d.firstIdx = r.err, r.i
		}
	}
	r.rpcState = rpcState{}
	d.h.c.fs.rpcFree.Put(r)
	if d.pending--; d.pending == 0 {
		d.joined.Fire()
	}
}

// call carries a blocking veneer's result across des.Block.
type call struct {
	fs  *FS
	k   func()
	err error
	h   *Handle

	doneF   func(error)
	openedF func(*Handle, error)
}

func (fs *FS) newCall() *call {
	return fs.callFree.Get(func() *call {
		cl := &call{fs: fs}
		cl.doneF = cl.done
		cl.openedF = cl.opened
		return cl
	})
}

func (cl *call) done(err error) {
	cl.err = err
	cl.k()
}

func (cl *call) opened(h *Handle, err error) {
	cl.h, cl.err = h, err
	cl.k()
}

// result recycles the call and returns what it carried.
func (cl *call) result() (*Handle, error) {
	h, err := cl.h, cl.err
	cl.k, cl.err, cl.h = nil, nil, nil
	cl.fs.callFree.Put(cl)
	return h, err
}
