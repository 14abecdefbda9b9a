// Command hostbench measures the host cost of the pioeval simulator: how
// long it takes, and how much it allocates, to run four workloads that
// between them reach every layer of the simulated I/O stack. It checks
// every simulated output it produces, and a traced run breaks the cost
// down by layer. README.md records why each workload exists and which
// metrics a change to each layer should move.
//
//	bash hostbench/run.sh --workload scale-ckpt --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Everything above it is the same numbers for a reader.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// workloadInfo names a workload and records why the benchmark runs it.
type workloadInfo struct {
	name string
	why  string
	make func(*env) runner
}

var workloads = []workloadInfo{
	{"scale-ckpt", "100k-rank 8-shard checkpoint: continuation-form procs, ParallelGroup windows, fabric TransferE and the pfs E-form client",
		func(e *env) runner { return &scaleCkpt{env: e} }},
	{"ior-grid", "IOR grid through campaign: goroutine-form pfs client, mpi, two-phase mpiio and posixio",
		func(e *env) runner { return &iorGrid{env: e} }},
	{"io500-tiers", "io500 suite over tier x compress: metadata at the MDS, small unaligned writes, burst buffer and the reduce stage",
		func(e *env) runner { return &io500Tiers{env: e} }},
	{"siod-mixed", "closed-loop HTTP clients against siod: cache hits, single-flight and misses that run campaign",
		func(e *env) runner { return &siodMixed{env: e} }},
}

type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees; every workload reports
// all of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"run_ms.p50", "ms"},
	{"alloc_MB", "MB"},
}

// perLayer is what the traced run reports. A layer a workload does not
// reach reads 0.
var perLayer = []metricDef{
	{"des.dispatches", "count"}, {"des.windows", "count"}, {"des.parallel_eff", "frac"},
	{"des.dispatch_ns", "ns/op"}, {"des.dispatch_allocs", "allocs/op"},
	{"des.eventproc_wake_ns", "ns/op"}, {"des.eventproc_wake_allocs", "allocs/op"},
	{"des.proc_handoff_ns", "ns/op"}, {"des.proc_handoff_allocs", "allocs/op"},
	{"des.cpu_frac", "frac"},
	{"netsim.transfer_ns", "ns/op"}, {"netsim.transfer_allocs", "allocs/op"}, {"netsim.cpu_frac", "frac"},
	{"pfs.rpc_ns", "ns/op"}, {"pfs.rpc_allocs", "allocs/op"}, {"pfs.mds_ops", "count/pass"},
	{"pfs.retries", "count/pass"}, {"pfs.cpu_frac", "frac"},
	{"mpi.cpu_frac", "frac"}, {"mpiio.cpu_frac", "frac"}, {"posixio.cpu_frac", "frac"},
	{"mpiio.collective_run_ms", "ms"}, {"mpiio.independent_run_ms", "ms"},
	{"storage.run_ms.direct", "ms"}, {"storage.run_ms.bb", "ms"}, {"storage.run_ms.nodelocal", "ms"},
	{"reduce.run_ms.none", "ms"}, {"reduce.run_ms.lz", "ms"},
	{"bb.write_ns", "ns/op"}, {"bb.write_allocs", "allocs/op"},
	{"reduce.write_ns", "ns/op"}, {"reduce.write_allocs", "allocs/op"},
	{"storage.cpu_frac", "frac"}, {"burstbuffer.cpu_frac", "frac"}, {"reduce.cpu_frac", "frac"},
	{"blockdev.cpu_frac", "frac"}, {"workload.cpu_frac", "frac"},
	{"campaign.speedup", "x"}, {"campaign.cpu_frac", "frac"},
	{"io500.run_ms.hdd", "ms"}, {"io500.run_ms.ssd", "ms"}, {"io500.run_ms.nvme", "ms"}, {"io500.cpu_frac", "frac"},
	{"serve.cache_hit_rate", "frac"}, {"serve.singleflight_shared", "count"}, {"serve.dropped", "count"},
	{"serve.rejected", "count"}, {"serve.p95_job_ms", "ms"}, {"serve.hit_req_ms.p50", "ms"},
	{"serve.miss_req_ms.p50", "ms"}, {"serve.cpu_frac", "frac"},
	{"validate.overhead_frac", "frac"},
	{"runtime.gc_frac", "frac"}, {"runtime.gc_cycles", "count/pass"}, {"runtime.mallocs", "count/pass"},
	{"runtime.malloc_frac", "frac"}, {"runtime.sched_frac", "frac"}, {"runtime.other_frac", "frac"},
	{"other.cpu_frac", "frac"},
	{"heap_B_per_rank", "B/rank"},
	{"trace.overhead_frac", "frac"},
}

// cpuLayers are the packages whose self time the traced run reports as
// <layer>.cpu_frac.
var cpuLayers = []string{"des", "netsim", "pfs", "mpi", "mpiio", "posixio", "storage",
	"burstbuffer", "reduce", "blockdev", "workload", "campaign", "io500", "serve"}

// Set-up runs at least setupMinReps times and until setupMinTime has
// passed, at most setupMaxReps times. The first few set-ups of a process
// are slower than the rest, so a median over many is what stays steady.
const (
	setupMinReps = 9
	setupMaxReps = 100
	setupMinTime = 2 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: scale-ckpt, ior-grid, io500-tiers or siod-mixed")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 20, "how long the timed passes run")
	traced := fl.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fl.String("out", ".bench_build/hostbench", "directory for the traced run's CPU profile and spans")
	cpuFrac := fl.String("cpu-frac", "", "reduce this pprof CPU profile to self time per layer and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *cpuFrac != "" {
		s, err := reduceProfileFile(*cpuFrac)
		if err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		printShares(stdout, s)
		return 0
	}
	var info *workloadInfo
	for i := range workloads {
		if workloads[i].name == *name {
			info = &workloads[i]
		}
	}
	if info == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "hostbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", names())
		return 2
	}
	e := &env{seed: *seed, nproc: runtime.NumCPU(), t: &tally{}, layer: map[string]float64{}}
	b := &bench{info: info, env: e, w: info.make(e), seconds: *seconds, traced: *traced == 1, out: *out, stdout: stdout}
	metrics, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	for _, p := range e.t.problems {
		fmt.Fprintln(stderr, "hostbench: FAIL", p)
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{e.t.failed == 0, e.t.attempted, e.t.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	// A run that found wrong outputs still prints its result, with
	// correct false, and exits 0: the failure is in the result line.
	fmt.Fprintln(stdout, string(line))
	return 0
}

func names() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// bench is one invocation: set-up, timed passes, gates, and for the
// traced run the profile, spans and microbenchmarks.
type bench struct {
	info *workloadInfo
	*env
	w       runner
	seconds float64
	traced  bool
	out     string
	stdout  io.Writer
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.stdout, format, args...) }

// passes runs timed passes at nproc workers until budget has passed and
// at least minPasses ran, checking every digest against ref (set from
// the first pass when empty). Each pass starts after a forced GC, so no
// pass pays for the garbage of the one before.
func (b *bench) passes(rec *recorder, budget time.Duration, minPasses int, ref *string) {
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		runtime.GC()
		d := b.w.pass(b.nproc, rec)
		if d == "" {
			continue
		}
		if *ref == "" {
			*ref = d
		}
		b.t.check(d == *ref, "%s: pass %d digest %s differs from %s", b.info.name, n, d, *ref)
	}
}

func (b *bench) run() (map[string]map[string]any, error) {
	b.printf("hostbench %s seed=%d seconds=%g trace=%v nproc=%d %s %s/%s\n  why: %s\n",
		b.info.name, b.seed, b.seconds, b.traced, b.nproc, runtime.Version(), runtime.GOOS, runtime.GOARCH, b.info.why)
	defer b.w.close()

	var setups []float64
	setupStart := time.Now()
	for i := 0; i < setupMaxReps && (i < setupMinReps || time.Since(setupStart) < setupMinTime); i++ {
		t0 := time.Now()
		if err := b.w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.info.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	budget := time.Duration(b.seconds * float64(time.Second))
	timed := newRecorder()
	var ref string
	if !b.traced {
		b.passes(timed, budget, 3, &ref)
	} else {
		b.passes(timed, budget/2, 2, &ref)
	}
	var tracedRec *recorder
	var shares cpuShares
	if b.traced {
		if err := os.MkdirAll(b.out, 0o755); err != nil {
			return nil, err
		}
		base := filepath.Join(b.out, fmt.Sprintf("%s-seed%d", b.info.name, b.seed))
		f, err := os.Create(base + ".cpu.pprof")
		if err != nil {
			return nil, err
		}
		tracedRec = newRecorder()
		tracedRec.tracing = true
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		b.passes(tracedRec, budget/2, 2, &ref)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		if err := tracedRec.writeSpans(base + ".spans.jsonl"); err != nil {
			return nil, err
		}
		if shares, err = reduceProfileFile(base + ".cpu.pprof"); err != nil {
			return nil, err
		}
		b.printf("  traced run: CPU profile %s.cpu.pprof, spans %s.spans.jsonl\n", base, base)
	}

	// Gates: the same outputs at one worker, and with the invariants armed.
	wallN := timed.wallMedian()
	var speedup, armedOverhead float64
	if ref != "" {
		one := newRecorder()
		d := b.w.pass(1, one)
		b.t.check(d == ref, "%s: digest at 1 worker %s differs from %s at %d", b.info.name, d, ref, b.nproc)
		speedup = one.wallMedian() / wallN
		b.printf("  gate: digest %s identical across %d timed passes and at workers 1 and %d\n", ref, len(timed.passes), b.nproc)
	}
	if a, ok := b.w.(armer); ok {
		armed := newRecorder()
		d, vios := a.armedPass(armed)
		b.t.check(vios == 0, "%s: %d armed-invariant violations", b.info.name, vios)
		b.t.check(d == ref, "%s: armed digest %s differs from unarmed %s", b.info.name, d, ref)
		armedOverhead = armed.wallMedian()/wallN - 1
		b.printf("  gate: armed pass digest %s, %d violations\n", d, vios)
	}
	b.w.finish(timed)

	lat := timed.latencies(nil)
	e2e := map[string]float64{
		"setup_s":    median(setups),
		"wall_s":     wallN,
		"run_ms.p50": median(lat),
		"alloc_MB":   timed.allocMedian(),
	}
	b.printf("  end to end (tracing off, %d passes, %d unit calls):\n", len(timed.passes), len(lat))
	b.printf("    %-22s %14.6f s   (median of %d set-ups)\n", "setup_s", e2e["setup_s"], len(setups))
	b.printf("    %-22s %14.6f s   (median pass)\n", "wall_s", e2e["wall_s"])
	b.printf("    %-22s %14.4f ms  (median unit call, n=%d)\n", "run_ms.p50", e2e["run_ms.p50"], len(lat))
	for _, p := range []float64{90, 99} {
		if tailOK(len(lat), p) {
			b.printf("    %-22s %14.4f ms  (n=%d, %d beyond)\n", fmt.Sprintf("run_ms.p%g", p), percentile(lat, p), len(lat), int(float64(len(lat))*(1-p/100)))
		} else {
			b.printf("    %-22s %14s     (n=%d leaves fewer than ten beyond)\n", fmt.Sprintf("run_ms.p%g", p), "-", len(lat))
		}
	}
	b.printf("    %-22s %14.3f MB  (median per pass)\n", "alloc_MB", e2e["alloc_MB"])
	b.printf("    %-22s %14.6f     (%d failed of %d attempted)\n", "fail_frac", float64(b.t.failed)/float64(max(1, b.t.attempted)), b.t.failed, b.t.attempted)
	for _, n := range b.notes {
		b.printf("    %s\n", n)
	}
	if !b.traced {
		return metricsJSON(endToEnd, e2e), nil
	}

	npass := float64(len(tracedRec.passes))
	l := b.layer
	l["runtime.gc_frac"] = tracedRec.rt.gcFrac()
	l["runtime.gc_cycles"] = float64(tracedRec.rt.gcCycles) / npass
	l["runtime.mallocs"] = float64(tracedRec.rt.mallocs) / npass
	for _, layer := range cpuLayers {
		l[layer+".cpu_frac"] = shares.frac[layer]
	}
	for _, bucket := range []string{"malloc", "sched", "other"} {
		l["runtime."+bucket+"_frac"] = shares.frac["runtime."+bucket]
	}
	l["other.cpu_frac"] = shares.frac["other"]
	l["trace.overhead_frac"] = tracedRec.wallMedian()/wallN - 1
	switch b.info.name {
	case "scale-ckpt":
		l["des.parallel_eff"] = speedup / float64(b.nproc)
		l["validate.overhead_frac"] = armedOverhead
	case "ior-grid":
		l["campaign.speedup"] = speedup
	case "io500-tiers":
		l["campaign.speedup"] = speedup
		l["validate.overhead_frac"] = armedOverhead
	}
	for _, mb := range microBenches {
		r, err := runMicro(mb)
		if !b.t.check(err == nil, "microbenchmark %s: %v", mb.name, err) {
			continue
		}
		l[r.name+"_ns"] = r.nsOp
		l[r.name+"_allocs"] = float64(r.allocs)
	}

	b.printf("  traced run: wall_s %.6f s traced vs %.6f s untraced (overhead %+.2f%%)\n",
		tracedRec.wallMedian(), wallN, 100*l["trace.overhead_frac"])
	printShares(b.stdout, shares)
	b.printf("  spans (self time = duration minus children):\n")
	stats := tracedRec.spanSelf()
	var spanNames []string
	for n := range stats {
		spanNames = append(spanNames, n)
	}
	sort.Strings(spanNames)
	for _, n := range spanNames {
		s := stats[n]
		b.printf("    %-32s n=%-6d total %-12v self %v\n", n, s.n, s.total.Round(time.Microsecond), s.self.Round(time.Microsecond))
	}
	b.printf("  per layer:\n")
	for _, m := range perLayer {
		b.printf("    %-28s %16.6f %s\n", m.name, l[m.name], m.unit)
	}
	return metricsJSON(perLayer, l), nil
}

func metricsJSON(defs []metricDef, vals map[string]float64) map[string]map[string]any {
	out := map[string]map[string]any{}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}
