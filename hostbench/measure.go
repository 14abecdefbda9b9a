package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// rtSample is one read of the runtime/metrics this benchmark reports.
// Differences between two samples bracket a timed region.
type rtSample struct {
	allocBytes, allocObjs, tinyObjs, gcCycles uint64
	gcCPU, idleCPU, totalCPU                  float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return rtSample{
		allocBytes: u(0), allocObjs: u(1), tinyObjs: u(2), gcCycles: u(3),
		gcCPU: f(4), idleCPU: f(5), totalCPU: f(6),
	}
}

// rtDelta accumulates runtime/metrics differences over timed regions.
// busyCPU is the CPU time used: the runtime's total (GOMAXPROCS times
// wall-clock) less idle time.
type rtDelta struct {
	mallocs, gcCycles uint64
	gcCPU, busyCPU    float64
}

func (d *rtDelta) add(a, b rtSample) {
	d.mallocs += (b.allocObjs + b.tinyObjs) - (a.allocObjs + a.tinyObjs)
	d.gcCycles += b.gcCycles - a.gcCycles
	d.gcCPU += b.gcCPU - a.gcCPU
	d.busyCPU += (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
}

// gcFrac is GC's share of the CPU time used, not of the CPU available.
func (d rtDelta) gcFrac() float64 {
	if d.busyCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.busyCPU
}

// unit is one timed call into the system under test.
type unit struct {
	ms    float64
	label string
}

// span is one traced interval at a call the benchmark makes into a layer.
// Spans of one pass share a Trace id; Parent is 0 for a pass span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// passStat is one timed pass: its wall time and the bytes it allocated.
type passStat struct {
	wall       time.Duration
	allocBytes uint64
}

// recorder collects pass and unit timings, runtime/metrics deltas around
// the passes, and spans when tracing is on. It is safe for concurrent
// use: the siod clients record from several goroutines.
type recorder struct {
	mu      sync.Mutex
	units   []unit
	passes  []passStat
	rt      rtDelta
	tracing bool
	epoch   time.Time
	spans   []span
	pass    int // id of the open pass span
	trace   int
}

// region times fn as one pass.
func (r *recorder) region(fn func()) {
	a := readRuntime()
	t0 := r.beginPass()
	fn()
	wall := time.Since(t0)
	r.endPass()
	b := readRuntime()
	r.mu.Lock()
	r.passes = append(r.passes, passStat{wall: wall, allocBytes: b.allocBytes - a.allocBytes})
	r.rt.add(a, b)
	r.mu.Unlock()
}

// wallMedian is the median pass wall time in seconds.
func (r *recorder) wallMedian() float64 {
	var xs []float64
	for _, p := range r.passes {
		xs = append(xs, p.wall.Seconds())
	}
	return median(xs)
}

// allocMedian is the median of MB allocated per pass.
func (r *recorder) allocMedian() float64 {
	var xs []float64
	for _, p := range r.passes {
		xs = append(xs, float64(p.allocBytes)/1e6)
	}
	return median(xs)
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginPass opens a pass span when tracing.
func (r *recorder) beginPass() time.Time {
	t := time.Now()
	if r.tracing {
		r.mu.Lock()
		r.trace++
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Trace: r.trace, Name: "pass", Start: t.Sub(r.epoch).Nanoseconds()})
		r.pass = len(r.spans)
		r.mu.Unlock()
	}
	return t
}

func (r *recorder) endPass() {
	if r.tracing {
		r.mu.Lock()
		r.spans[r.pass-1].End = time.Since(r.epoch).Nanoseconds()
		r.pass = 0
		r.mu.Unlock()
	}
}

// record stores one unit call that ran from start to end.
func (r *recorder) record(name, label string, start, end time.Time) {
	r.mu.Lock()
	r.units = append(r.units, unit{ms: float64(end.Sub(start)) / 1e6, label: label})
	if r.tracing {
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: r.pass, Trace: r.trace, Name: name, Label: label,
			Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
		})
	}
	r.mu.Unlock()
}

// time runs fn as one unit call named name.
func (r *recorder) time(name, label string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.record(name, label, t0, time.Now())
	return err
}

func (r *recorder) latencies(match func(label string) bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, u := range r.units {
		if match == nil || match(u.label) {
			out = append(out, u.ms)
		}
	}
	return out
}

// spanSelf reports, per span name, the count, total duration and self
// time: a span's duration minus the part of it that its children cover.
type spanStat struct {
	n           int
	total, self time.Duration
}

func (r *recorder) spanSelf() map[string]*spanStat {
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanStat{}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.n++
		st.total += time.Duration(d)
		st.self += time.Duration(d - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// writeSpans writes every span as one JSON object per line.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// percentile is the nearest-rank percentile p (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median is the middle value, averaging the two middle values of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOK reports whether percentile p of n samples has at least ten
// samples beyond it.
func tailOK(n int, p float64) bool { return float64(n)*(1-p/100) >= 10 }

// tally counts attempted operations and failures (failed unit calls,
// digest mismatches, armed-invariant violations, non-200 replies).
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

// check counts one attempted operation, failing it when ok is false.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.problems) < 20 {
			t.problems = append(t.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}
