package blockdev

import (
	"testing"
	"testing/quick"

	"pioeval/internal/des"
)

func TestHDDSequentialVsRandom(t *testing.T) {
	m := DefaultHDD()
	seq := ServiceTime(m, Request{Offset: 4096, Size: 4096}, 4096)
	rnd := ServiceTime(m, Request{Offset: 1 << 30, Size: 4096}, 4096)
	if seq >= rnd {
		t.Fatalf("sequential (%v) should be faster than random (%v)", seq, rnd)
	}
	if rnd-seq != m.SeekTime+m.RotationalLat {
		t.Errorf("random penalty = %v, want seek+rot = %v", rnd-seq, m.SeekTime+m.RotationalLat)
	}
}

func TestSSDReadWriteAsymmetry(t *testing.T) {
	m := DefaultSSD()
	r := ServiceTime(m, Request{Size: 1 << 20}, 0)
	w := ServiceTime(m, Request{Size: 1 << 20, Write: true}, 0)
	if w <= 0 || r <= 0 {
		t.Fatal("service times must be positive")
	}
	// Write bandwidth is lower, so large writes are slower despite the
	// smaller fixed latency.
	if w <= r {
		t.Errorf("1MB write (%v) should be slower than read (%v)", w, r)
	}
}

func TestNVMeFasterThanSSD(t *testing.T) {
	ssd, nvme := DefaultSSD(), DefaultNVMe()
	req := Request{Size: 1 << 20}
	if ServiceTime(nvme, req, 0) >= ServiceTime(ssd, req, 0) {
		t.Error("NVMe should be faster than SATA SSD")
	}
}

func TestDeviceQueueing(t *testing.T) {
	e := des.NewEngine(1)
	// Deterministic model: 10us per request regardless of shape.
	m := &SSDModel{ReadLatency: 10 * des.Microsecond, WriteLatency: 10 * des.Microsecond, ReadBps: 1e18, WriteBps: 1e18}
	d := NewDevice(e, "d0", m, 1)
	var ends []des.Time
	for i := 0; i < 3; i++ {
		e.Spawn("u", func(p *des.Proc) {
			d.Access(p, Request{Offset: 0, Size: 1})
			ends = append(ends, p.Now())
		})
	}
	e.Run(des.MaxTime)
	want := []des.Time{10 * des.Microsecond, 20 * des.Microsecond, 30 * des.Microsecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	st := d.Stats()
	if st.Reads != 3 || st.BytesRead != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeviceQueueDepthParallelism(t *testing.T) {
	e := des.NewEngine(1)
	m := &SSDModel{ReadLatency: 10 * des.Microsecond, ReadBps: 1e18, WriteBps: 1e18}
	d := NewDevice(e, "d0", m, 4)
	var last des.Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *des.Proc) {
			d.Access(p, Request{Size: 1})
			last = p.Now()
		})
	}
	e.Run(des.MaxTime)
	if last != 10*des.Microsecond {
		t.Fatalf("4 parallel ops on depth-4 device finished at %v, want 10us", last)
	}
}

func TestDeviceStatsCounters(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d0", DefaultSSD(), 1)
	e.Spawn("u", func(p *des.Proc) {
		d.Access(p, Request{Size: 100, Write: true})
		d.Access(p, Request{Offset: 100, Size: 200, Write: true})
		d.Access(p, Request{Size: 300})
	})
	e.Run(des.MaxTime)
	st := d.Stats()
	if st.Writes != 2 || st.BytesWritten != 300 {
		t.Errorf("writes=%d bytesWritten=%d, want 2/300", st.Writes, st.BytesWritten)
	}
	if st.Reads != 1 || st.BytesRead != 300 {
		t.Errorf("reads=%d bytesRead=%d, want 1/300", st.Reads, st.BytesRead)
	}
}

func TestBadRequestPanics(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d0", DefaultSSD(), 1)
	e.Spawn("u", func(p *des.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative size should panic")
			}
		}()
		d.Access(p, Request{Size: -1})
	})
	e.Run(des.MaxTime)
}

func TestSetSlowdownValidation(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d0", DefaultSSD(), 1)
	for _, bad := range []float64{0, -1, 0.5} {
		if err := d.SetSlowdown(bad); err == nil {
			t.Errorf("SetSlowdown(%g) should fail", bad)
		}
	}
	if got := d.Slowdown(); got != 1 {
		t.Errorf("rejected factors must not stick: slowdown = %g, want 1", got)
	}
	if err := d.SetSlowdown(3); err != nil {
		t.Fatalf("SetSlowdown(3): %v", err)
	}
	if got := d.Slowdown(); got != 3 {
		t.Errorf("slowdown = %g, want 3", got)
	}
	if err := d.SetSlowdown(1); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

func TestSlowdownScalesServiceTime(t *testing.T) {
	run := func(factor float64) des.Time {
		e := des.NewEngine(1)
		m := &SSDModel{ReadLatency: 10 * des.Microsecond, ReadBps: 1e18, WriteBps: 1e18}
		d := NewDevice(e, "d0", m, 1)
		if err := d.SetSlowdown(factor); err != nil {
			t.Fatal(err)
		}
		e.Spawn("u", func(p *des.Proc) { d.Access(p, Request{Size: 1}) })
		return e.Run(des.MaxTime)
	}
	if base, slow := run(1), run(5); slow != 5*base {
		t.Errorf("slowdown 5x: %v vs base %v", slow, base)
	}
}

// Property: HDD service time is non-decreasing in request size for fixed
// alignment.
func TestPropHDDMonotonicInSize(t *testing.T) {
	m := DefaultHDD()
	f := func(a, b uint32) bool {
		x, y := int64(a%(1<<26)), int64(b%(1<<26))
		if x > y {
			x, y = y, x
		}
		return ServiceTime(m, Request{Offset: 0, Size: x}, 0) <= ServiceTime(m, Request{Offset: 0, Size: y}, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: device busy time never exceeds elapsed time * queue depth.
func TestPropBusyBounded(t *testing.T) {
	f := func(n uint8, depth uint8) bool {
		ops := int(n%20) + 1
		qd := int(depth%4) + 1
		e := des.NewEngine(11)
		d := NewDevice(e, "d", DefaultSSD(), qd)
		for i := 0; i < ops; i++ {
			e.Spawn("u", func(p *des.Proc) {
				sz := int64(e.RNG().Stream("sz").Intn(1<<20) + 1)
				d.Access(p, Request{Size: sz, Write: e.RNG().Stream("w").Intn(2) == 0})
			})
		}
		end := e.Run(des.MaxTime)
		return d.Stats().BusyTime <= end*des.Time(qd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAccessSteadyStateAllocs pins a blocking Access — latency and media
// hold both taken — at zero allocations once its machine is on the
// device's freelist.
func TestAccessSteadyStateAllocs(t *testing.T) {
	e := des.NewEngine(1)
	d := NewDevice(e, "d", DefaultHDD(), 4)
	var allocs float64
	e.Spawn("x", func(p *des.Proc) {
		off := int64(0)
		allocs = testing.AllocsPerRun(100, func() {
			off += 1 << 20 // a gap: every request seeks
			d.Access(p, Request{Offset: off, Size: 4096, Write: true})
		})
	})
	e.Run(des.MaxTime)
	if allocs != 0 {
		t.Fatalf("blocking Access: %v allocs, want 0", allocs)
	}
}

// TestModelByName: the device table maps each accepted name to its default
// model and rejects any other name with the accepted list.
func TestModelByName(t *testing.T) {
	for name, want := range map[string]Model{"hdd": DefaultHDD(), "ssd": DefaultSSD(), "nvme": DefaultNVMe()} {
		mk, err := ModelByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := mk(); ServiceTime(got, Request{Size: 1 << 20}, 0) != ServiceTime(want, Request{Size: 1 << 20}, 0) {
			t.Errorf("%s: model %+v, want %+v", name, got, want)
		}
	}
	if _, err := ModelByName("tape"); err == nil || err.Error() != `unknown device "tape" (want hdd, ssd, or nvme)` {
		t.Fatalf("tape: err = %v", err)
	}
}
