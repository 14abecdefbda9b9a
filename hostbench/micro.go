package main

import (
	"runtime"
	"time"

	"pioeval/internal/burstbuffer"
	"pioeval/internal/des"
	"pioeval/internal/netsim"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
)

// Per-layer microbenchmarks: each times one layer's public function in
// isolation over a fixed operation count. ns/op is the median of three
// repetitions; allocs/op is whole heap allocations per operation, which
// repeats exactly and compares as a count.

type microResult struct {
	name   string
	nsOp   float64
	allocs uint64
}

type microBench struct {
	name string
	ops  int
	// prepare builds the simulation and returns the function that runs
	// its ops operations; only that function is measured.
	prepare func(ops int) func() error
}

var microBenches = []microBench{
	{"des.dispatch", 400_000, microDispatch},
	{"des.eventproc_wake", 400_000, microEventProcWake},
	{"des.proc_handoff", 100_000, microProcHandoff},
	{"netsim.transfer", 100_000, microTransfer},
	{"pfs.rpc", 50_000, microPFSWrite},
	{"bb.write", 20_000, microBBWrite},
	{"reduce.write", 20_000, microReduceWrite},
}

func runMicro(b microBench) (res microResult, err error) {
	var ns []float64
	var allocs uint64
	for rep := 0; rep < 3; rep++ {
		run := b.prepare(b.ops)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err = safe(run)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return res, err
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(b.ops))
		allocs = (m1.Mallocs - m0.Mallocs) / uint64(b.ops)
	}
	return microResult{name: b.name, nsOp: median(ns), allocs: allocs}, nil
}

// microDispatch schedules and dispatches events against a standing
// population of 256 timers, the regime of a simulated cluster.
func microDispatch(ops int) func() error {
	e := des.NewEngine(1)
	remaining := ops
	for i := 0; i < 256; i++ {
		period := des.Time(i%61 + 1)
		var fire func()
		fire = func() {
			if remaining > 0 {
				remaining--
				e.After(period, fire)
			}
		}
		e.After(period, fire)
	}
	return func() error { e.Run(des.MaxTime); return nil }
}

// microEventProcWake is one suspend/resume of a continuation-form process.
func microEventProcWake(ops int) func() error {
	e := des.NewEngine(1)
	e.SpawnEvent("p", func(ep *des.EventProc) {
		n := 0
		var step func()
		step = func() {
			if n++; n < ops {
				ep.Wait(1, step)
			}
		}
		ep.Wait(1, step)
	})
	return func() error { e.Run(des.MaxTime); return nil }
}

// microProcHandoff is one suspend/resume of a goroutine-form process: a
// channel rendezvous with the engine loop.
func microProcHandoff(ops int) func() error {
	e := des.NewEngine(1)
	e.Spawn("p", func(p *des.Proc) {
		for i := 0; i < ops; i++ {
			p.Wait(1)
		}
	})
	return func() error { e.Run(des.MaxTime); return nil }
}

// microTransfer moves 1 MiB between two fabric nodes per op through the
// continuation form, Fabric.TransferE.
func microTransfer(ops int) func() error {
	e := des.NewEngine(1)
	f := netsim.NewFabric(e, netsim.InfiniBandLike())
	f.AddNode("a")
	f.AddNode("b")
	e.SpawnEvent("xfer", func(ep *des.EventProc) {
		n := 0
		var step func()
		step = func() {
			if n++; n <= ops {
				f.TransferE(ep, "a", "b", 1<<20, step)
			}
		}
		step()
	})
	return func() error { e.Run(des.MaxTime); return nil }
}

// microPFSWrite is one 1 MiB Handle.WriteE data RPC on the default cluster,
// cycling over a 64 MiB file so the extent map stops growing.
func microPFSWrite(ops int) func() error {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.DefaultConfig())
	c := fs.NewClient("cn0")
	var failed error
	e.SpawnEvent("w", func(ep *des.EventProc) {
		c.CreateE(ep, "/micro", 1, 1<<20, func(h *pfs.Handle, err error) {
			n := 0
			var step func(error)
			step = func(err error) {
				if err != nil {
					failed = err
					return
				}
				if n++; n <= ops {
					h.WriteE(ep, int64(n%64)<<20, 1<<20, step)
				}
			}
			step(err)
		})
	})
	return func() error { e.Run(des.MaxTime); return failed }
}

// microBBWrite stages 64 KiB per op through a burst buffer and waits for
// the drain, so an op covers both absorb and drain. The file exists on the
// PFS first, as the bb tier creates it before staging.
func microBBWrite(ops int) func() error {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.DefaultConfig())
	c := fs.NewClient("cn0")
	bb := burstbuffer.New(e, fs, "bb0", burstbuffer.DefaultConfig())
	var failed error
	e.Spawn("w", func(p *des.Proc) {
		defer bb.Shutdown()
		h, err := c.Create(p, "/micro", 0, 0)
		if err == nil {
			err = h.Close(p)
		}
		if err != nil {
			failed = err
			return
		}
		for i := 0; i < ops; i++ {
			bb.Write(p, "/micro", int64(i%1024)<<16, 1<<16)
		}
		failed = bb.WaitDrained(p)
	})
	return func() error { e.Run(des.MaxTime); return failed }
}

// microReduceWrite is one 1 MiB write through an lz stage wrapped over
// the direct PFS target.
func microReduceWrite(ops int) func() error {
	e := des.NewEngine(1)
	fs := pfs.New(e, pfs.DefaultConfig())
	st, err := reduce.New("lz")
	if err != nil {
		return func() error { return err }
	}
	t := st.Wrap("cn0", storage.Direct(fs.NewClient("cn0")))
	var failed error
	e.Spawn("w", func(p *des.Proc) {
		h, err := t.Create(p, "/micro", 1, 1<<20)
		for i := 0; err == nil && i < ops; i++ {
			err = h.Write(p, int64(i%64)<<20, 1<<20)
		}
		failed = err
	})
	return func() error { e.Run(des.MaxTime); return failed }
}
