package storage

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// sweepGolden is the op stream sweepOpStream produces, recorded before
// the burst buffer kept its drain handles in a sorted index.
const sweepGolden = "testdata/bb_sweep_ops.txt"

// sweepOpStream runs ranks interleaving create, write and fsync on the bb
// tier, with client write-behind so the drain client's handles stay dirty
// until a durability sweep flushes them. It returns every pfs.OpEvent as
// one "client op path start end" line, and counts the drain client's
// fsyncs and those that took simulated time.
func sweepOpStream(t *testing.T) (stream string, drainFsyncs, yielded int) {
	t.Helper()
	e := des.NewEngine(3)
	cfg := pfs.DefaultConfig()
	cfg.NumIONodes = 0
	cfg.ClientWriteBehind = 8 << 20
	fs := pfs.New(e, cfg)
	var b strings.Builder
	fs.SetOpObserver(func(ev pfs.OpEvent) {
		fmt.Fprintf(&b, "%s %s %s %d %d\n", ev.Client, ev.Op, ev.Path, ev.Start, ev.End)
		if ev.Client == "bb0" && ev.Op == "fsync" {
			drainFsyncs++
			if ev.End > ev.Start {
				yielded++
			}
		}
	})
	pr, err := NewProvider(e, fs, TierBB, ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const ranks, files = 6, 5
	running := ranks
	for r := 0; r < ranks; r++ {
		tgt := pr.Target(fmt.Sprintf("cn%d", r))
		e.Spawn(fmt.Sprintf("rank%d", r), func(p *des.Proc) {
			for i := 0; i < files; i++ {
				p.Wait(des.Time(r+1) * 50 * des.Microsecond)
				h, err := tgt.Create(p, fmt.Sprintf("/r%d.f%d", r, i), 0, 0)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				for k := 0; k <= (r+i)%3; k++ {
					_ = h.Write(p, int64(k)<<18, 1<<18)
				}
				if err := h.Fsync(p); err != nil {
					t.Errorf("fsync: %v", err)
				}
				_ = h.Close(p)
			}
			if running--; running == 0 {
				if err := pr.Finalize(p); err != nil {
					t.Errorf("finalize: %v", err)
				}
			}
		})
	}
	e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		t.Fatalf("simulated deadlock: %d live procs", e.LiveProcs())
	}
	return b.String(), drainFsyncs, yielded
}

// TestTieredSweepOpStream pins what the durability sweep lets an observer
// see: every drain handle open when a sweep starts is fsynced, in path
// order, including clean ones, and files the drainer opens while a sweep
// yields wait for the next one. The stream must match the recording byte
// for byte, and at least one drain fsync must have taken simulated time,
// so the recording does exercise a sweep that yields.
func TestTieredSweepOpStream(t *testing.T) {
	got, drainFsyncs, yielded := sweepOpStream(t)
	if drainFsyncs == 0 || yielded == 0 {
		t.Fatalf("drain fsyncs = %d, %d of them yielding; want both > 0", drainFsyncs, yielded)
	}
	want, err := os.ReadFile(sweepGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("op stream differs from %s at line %d:\n got  %s\n want %s", sweepGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("op stream has %d lines, %s has %d", len(gl), sweepGolden, len(wl))
	}
}
