package pfs

import (
	"fmt"
	"testing"

	"pioeval/internal/des"
)

// blockingCheckpoint runs 8 goroutine ranks, each writing a 4 MiB file in
// 1 MiB calls, then fsync, close, open and read-back, for 3 steps, all
// through the blocking veneers, with write-behind off. It returns the
// engine's dispatch count and the makespan.
func blockingCheckpoint(ionodes int) (uint64, des.Time) {
	cfg := DefaultConfig()
	cfg.NumIONodes = ionodes
	cfg.ClientWriteBehind = 0
	e := des.NewEngine(3)
	fs := New(e, cfg)
	for r := 0; r < 8; r++ {
		c := fs.NewClient(fmt.Sprintf("cn%d", r))
		e.Spawn(fmt.Sprintf("rank%d", r), func(p *des.Proc) {
			for step := 0; step < 3; step++ {
				path := fmt.Sprintf("/ckpt.%d.%d", step, r)
				h, err := c.Create(p, path, 0, 0)
				if err != nil {
					panic(err)
				}
				for off := int64(0); off < 4<<20; off += 1 << 20 {
					if err := h.Write(p, off, 1<<20); err != nil {
						panic(err)
					}
				}
				if err := h.Fsync(p); err != nil {
					panic(err)
				}
				if err := h.Close(p); err != nil {
					panic(err)
				}
				if h, err = c.Open(p, path); err != nil {
					panic(err)
				}
				if err := h.Read(p, 0, 4<<20); err != nil {
					panic(err)
				}
				if err := h.Close(p); err != nil {
					panic(err)
				}
			}
		})
	}
	end := e.Run(des.MaxTime)
	return e.Dispatches(), end
}

// TestBlockingCheckpointDispatches pins the event count and makespan of a
// fixed blocking checkpoint, flat and through 2 I/O nodes. The values were
// recorded when the blocking calls still had bodies of their own, so the
// veneers over des.Block neither add nor drop an event.
func TestBlockingCheckpointDispatches(t *testing.T) {
	for _, tc := range []struct {
		ionodes    int
		dispatches uint64
		end        des.Time
	}{
		{0, 2574, 300025438},
		{2, 3946, 325818554},
	} {
		n, end := blockingCheckpoint(tc.ionodes)
		t.Logf("ionodes=%d: %d dispatches, end %d", tc.ionodes, n, int64(end))
		if n != tc.dispatches || end != tc.end {
			t.Errorf("ionodes=%d: %d dispatches ending at %v, want %d at %v", tc.ionodes, n, end, tc.dispatches, tc.end)
		}
	}
}

// TestCleanFsyncAllocs pins a blocking Fsync of a clean handle at zero
// allocations: the burst-buffer drain fsyncs every handle.
func TestCleanFsyncAllocs(t *testing.T) {
	e := des.NewEngine(1)
	fs := New(e, fastConfig())
	c := fs.NewClient("cn0")
	var allocs float64
	e.Spawn("p", func(p *des.Proc) {
		h, err := c.Create(p, "/f", 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(100, func() {
			if err := h.Fsync(p); err != nil {
				t.Error(err)
			}
		})
	})
	e.Run(des.MaxTime)
	if allocs != 0 {
		t.Fatalf("clean-handle Fsync: %v allocs, want 0", allocs)
	}
}
