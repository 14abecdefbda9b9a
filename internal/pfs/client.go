package pfs

import "pioeval/internal/des"

// metaReqSize / metaRespSize are the wire sizes of metadata RPCs.
const (
	metaReqSize  = 256
	metaRespSize = 256
	dataReqSize  = 512 // read request / write ack header
)

// OpEvent describes one completed client operation; installed observers
// (tracers, profilers) receive every event.
type OpEvent struct {
	Client string
	Op     string
	Path   string
	Offset int64
	Size   int64
	Start  des.Time
	End    des.Time
}

// SetOpObserver installs fn to receive every client operation event.
// Pass nil to disable. Only one observer is supported; compose externally.
func (fs *FS) SetOpObserver(fn func(OpEvent)) { fs.observer = fn }

func (fs *FS) observe(ev OpEvent) {
	if fs.observer != nil {
		fs.observer(ev)
	}
}

// OSTEvent describes one payload arrival at (write) or departure from
// (read) an object storage target: the bytes that actually reached the
// backing device, after any client-side buffering, striping, RPC
// splitting, and fault handling. Failed or timed-out RPCs emit no event.
// The byte-conservation invariant checkers (internal/validate) compare
// these against the client-side OpEvent view.
type OSTEvent struct {
	OST   int
	Size  int64
	Write bool
	At    des.Time
}

// SetOSTObserver installs fn to receive every successful OST data access.
// Pass nil to disable. Only one observer is supported; compose externally.
func (fs *FS) SetOSTObserver(fn func(OSTEvent)) { fs.ostObserver = fn }

// Client is a compute-node-resident file-system client. Each client is
// bound to a compute-fabric node and routed through one I/O node.
type Client struct {
	fs     *FS
	node   string
	ionode string // empty in flat-network mode

	// Write-behind buffer state (shared across the client's handles).
	wbCapacity int64
	wbDirty    int64

	// Client-side counters (the "client-side hardware statistics" of
	// §IV-A2): RPC counts and wire bytes as the compute node sees them.
	stats ClientStats
}

// ClientStats captures the client-side view of I/O traffic and of the
// resilience policy's work: attempts beyond the first (Retries), attempts
// abandoned on timeout (TimedOutRPCs), RPCs that exhausted their retry
// budget (FailedRPCs), and reads completed in degraded mode with the
// bytes they could not deliver.
type ClientStats struct {
	MetaRPCs  uint64
	ReadRPCs  uint64
	WriteRPCs uint64
	BytesSent int64 // payload leaving the client NIC
	BytesRecv int64 // payload arriving at the client NIC

	Retries       uint64
	TimedOutRPCs  uint64
	FailedRPCs    uint64
	DegradedReads uint64
	BytesMissing  int64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// NewClient registers a new client on compute node nodeName.
func (fs *FS) NewClient(nodeName string) *Client {
	fs.compute.AddNode(nodeName)
	return fs.newClientOn(nodeName)
}

// NewClientAt registers a client on compute node nodeName, creating the
// node on first use and sharing it afterwards: clients on the same node
// contend for the same NIC injection/ejection links, the way multiple
// ranks per compute node do on a real machine. Scale runs use this to
// keep per-rank fabric state sublinear in rank count.
func (fs *FS) NewClientAt(nodeName string) *Client {
	if !fs.compute.HasNode(nodeName) {
		fs.compute.AddNode(nodeName)
	}
	return fs.newClientOn(nodeName)
}

func (fs *FS) newClientOn(nodeName string) *Client {
	c := &Client{fs: fs, node: nodeName, wbCapacity: fs.cfg.ClientWriteBehind}
	if len(fs.ionodes) > 0 {
		c.ionode = fs.ionodes[fs.nextION%len(fs.ionodes)]
		fs.nextION++
	}
	fs.clientList = append(fs.clientList, c)
	return c
}

// Node returns the client's compute-fabric node name.
func (c *Client) Node() string { return c.node }

// IONode returns the I/O node this client routes through ("" in flat mode).
func (c *Client) IONode() string { return c.ionode }

// metaRPC runs metadata op m for goroutine proc p: metaRPCE through
// des.Block. It returns m's error; m's results stay readable until freed.
func (c *Client) metaRPC(p *des.Proc, m *metaOp) error {
	des.Block(p, func(ep *des.EventProc, k func()) {
		m.k = k
		c.metaRPCE(ep, m)
	})
	return m.err
}

// namespace runs a namespace op on path for p. It returns the settled op,
// or nil for an invalid path; the caller reads the results and frees it.
func (c *Client) namespace(p *des.Proc, op MetaOp, path string) (*metaOp, error) {
	path, err := cleanPath(path)
	if err != nil {
		return nil, err
	}
	m := c.fs.newMeta(c, op, path)
	return m, c.metaRPC(p, m)
}

// Mkdir creates a directory.
func (c *Client) Mkdir(p *des.Proc, path string) error {
	m, err := c.namespace(p, OpMkdir, path)
	c.fs.freeMeta(m)
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(p *des.Proc, path string) error {
	m, err := c.namespace(p, OpRmdir, path)
	c.fs.freeMeta(m)
	return err
}

// Stat returns file metadata.
func (c *Client) Stat(p *des.Proc, path string) (FileInfo, error) {
	m, err := c.namespace(p, OpStat, path)
	if m == nil {
		return FileInfo{}, err
	}
	fi := m.info
	c.fs.freeMeta(m)
	return fi, err
}

// Readdir lists the entries of a directory as base names, sorted.
func (c *Client) Readdir(p *des.Proc, path string) ([]string, error) {
	m, err := c.namespace(p, OpReaddir, path)
	if m == nil {
		return nil, err
	}
	names := m.names
	c.fs.freeMeta(m)
	return names, err
}

// Unlink removes a file.
func (c *Client) Unlink(p *des.Proc, path string) error {
	m, err := c.namespace(p, OpUnlink, path)
	c.fs.freeMeta(m)
	return err
}

// Handle is an open file.
type Handle struct {
	c      *Client
	path   string
	layout Layout
	closed bool

	// write-behind dirty extents, coalesced on append
	dirty []extent

	// readahead window already fetched from the servers
	raStart, raEnd int64
	raValid        bool
}

type extent struct{ off, size int64 }

// Create makes a new file with the given striping (0 values select the
// file-system defaults) and returns an open handle.
func (c *Client) Create(p *des.Proc, path string, stripeCount int, stripeSize int64) (*Handle, error) {
	cl := c.fs.newCall()
	des.Block(p, func(ep *des.EventProc, k func()) {
		cl.k = k
		c.CreateE(ep, path, stripeCount, stripeSize, cl.openedF)
	})
	return cl.result()
}

// Open opens an existing file.
func (c *Client) Open(p *des.Proc, path string) (*Handle, error) {
	cl := c.fs.newCall()
	des.Block(p, func(ep *des.EventProc, k func()) {
		cl.k = k
		c.OpenE(ep, path, cl.openedF)
	})
	return cl.result()
}

// Path returns the file path.
func (h *Handle) Path() string { return h.path }

// Layout returns the file's stripe layout.
func (h *Handle) Layout() Layout { return h.layout }

// chunk is one OST-directed piece of a striped request.
type chunk struct {
	ostIdx  int   // index into layout.OSTs
	objOff  int64 // offset within the object
	size    int64
	fileOff int64
}

// stripeChunks appends to dst the split of byte range [off, off+size)
// over the layout.
func stripeChunks(dst []chunk, l Layout, off, size int64) []chunk {
	for size > 0 {
		stripe := off / l.StripeSize
		within := off % l.StripeSize
		n := l.StripeSize - within
		if n > size {
			n = size
		}
		ostIdx := int(stripe % int64(l.StripeCount))
		objOff := (stripe/int64(l.StripeCount))*l.StripeSize + within
		dst = append(dst, chunk{ostIdx: ostIdx, objOff: objOff, size: n, fileOff: off})
		off += n
		size -= n
	}
	return dst
}

// blockIO runs a continuation-form handle operation for goroutine proc p
// and returns its error.
func (h *Handle) blockIO(p *des.Proc, op func(ep *des.EventProc, k func(error))) error {
	cl := h.c.fs.newCall()
	des.Block(p, func(ep *des.EventProc, k func()) {
		cl.k = k
		op(ep, cl.doneF)
	})
	_, err := cl.result()
	return err
}

// Write writes size bytes at offset off, blocking in simulated time; see
// WriteE.
func (h *Handle) Write(p *des.Proc, off, size int64) error {
	return h.blockIO(p, func(ep *des.EventProc, k func(error)) { h.WriteE(ep, off, size, k) })
}

// appendDirty records a dirty extent, coalescing with the previous one when
// contiguous.
func (h *Handle) appendDirty(off, size int64) {
	if n := len(h.dirty); n > 0 {
		last := &h.dirty[n-1]
		if last.off+last.size == off {
			last.size += size
			return
		}
	}
	h.dirty = append(h.dirty, extent{off, size})
}

// Read reads size bytes at offset off, blocking in simulated time; see
// ReadE.
func (h *Handle) Read(p *des.Proc, off, size int64) error {
	return h.blockIO(p, func(ep *des.EventProc, k func(error)) { h.ReadE(ep, off, size, k) })
}

// Fsync flushes buffered writes.
func (h *Handle) Fsync(p *des.Proc) error { return h.blockIO(p, h.FsyncE) }

// Close flushes and closes the handle. The handle is closed even when the
// final flush fails; the flush error is returned.
func (h *Handle) Close(p *des.Proc) error { return h.blockIO(p, h.CloseE) }
