// Command simfs runs an iolang workload script against a configurable
// simulated cluster and prints the server-side view: OST utilization and
// byte counters, MDS operation mix, and optional sampled bandwidth series
// — the storage-system-level monitoring perspective.
//
// With -validate the run self-checks: the full invariant suite from
// internal/validate (time monotonicity, per-rank causality, byte
// conservation across layer boundaries, clean shutdown balance) is armed,
// violations are reported, and the exit status is non-zero on any
// violation. With -oracles the analytic oracle suite runs instead of a
// workload and the exit status reflects the verdict.
package main

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"pioeval/internal/campaign"
	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/faults"
	"pioeval/internal/iolang"
	"pioeval/internal/monitor"
	"pioeval/internal/pfs"
	"pioeval/internal/storage"
	"pioeval/internal/trace"
	"pioeval/internal/validate"
	"pioeval/internal/workload"
)

// defaultScenario is the workload -validate runs when no script is given:
// a mixed checkpoint/log pattern touching every layer the checkers watch.
const defaultScenario = `workload "validate-default" {
	ranks 4
	stripe count=4 size=1048576
	write "/ckpt" offset=rank*4194304 size=4194304 chunk=1048576
	barrier
	read "/ckpt" offset=rank*4194304 size=2097152
	fsync "/ckpt"
	loop 2 {
		write "/log" offset=rank*1048576+iter*4194304 size=1048576
	}
	close "/ckpt"
}
`

func main() {
	log.SetFlags(0)
	log.SetPrefix("simfs: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures — including
// oracle failures and armed-invariant violations — return as errors
// instead of exiting. The golden tests drive it directly.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("simfs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cluster cli.ClusterFlags
	cluster.Register(fs)
	sample := fs.Bool("sample", false, "print sampled bandwidth series")
	faultSpec := fs.String("faults", "", "fault campaign, e.g. 'ostcrash:1@100ms; ostrecover:1@700ms; mdsdown@1s; mdsup@1.5s'")
	resilient := fs.Bool("resilient", false, "enable the default client resilience policy (timeouts, retries, degraded reads)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	doValidate := fs.Bool("validate", false, "arm runtime invariant checkers and exit non-zero on any violation (runs a built-in scenario when no script is given)")
	doOracles := fs.Bool("oracles", false, "run the analytic oracle suite instead of a workload; exit non-zero on failure")
	tier := fs.String("tier", "direct", "storage tier for workload ranks: direct, bb (burst-buffer write-back), or nodelocal (per-node scratch)")
	compress := fs.String("compress", "none", "data-reduction stage over the tier: none, lz, deflate, zfp, or sz")
	scaleRanks := fs.Int("ranks", 0, "run the built-in scale checkpoint with this many continuation-form ranks instead of a workload script")
	shards := fs.Int("shards", 1, "partition the scale run into this many engines coupled by a ParallelGroup")
	shardWorkers := fs.Int("shard-workers", 0, "persistent shard workers (0 = all host cores via runtime.NumCPU, 1 = sequential); never affects results")
	workersSweep := fs.Int("workers-sweep", 0, "run the sharded scale config at worker counts 1..N (powers of two), print a speedup/efficiency table, and verify the output is byte-identical across the sweep (0 = off)")
	steps := fs.Int("steps", 1, "checkpoint steps for the scale run")
	bytesPerRank := fs.Int64("bytes-per-rank", 1<<20, "checkpoint bytes per rank per step for the scale run")
	xfer := fs.Int64("xfer", 1<<20, "write chunk size for the scale run")
	ranksPerNode := fs.Int("ranks-per-node", 64, "ranks sharing one compute node (and its NIC) in the scale run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *doOracles {
		failed := false
		for _, r := range validate.RunOracles(cluster.Seed) {
			fmt.Fprintln(stdout, r)
			if !r.Pass() {
				failed = true
				fmt.Fprintf(stdout, "     %s\n", r.Detail)
			}
		}
		if failed {
			return fmt.Errorf("oracle suite failed")
		}
		return nil
	}
	if *scaleRanks > 0 {
		// The scale run is the built-in checkpoint on the direct tier,
		// uncompressed, fault-free and unsampled: reject what it ignores.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tier", "compress", "faults", "resilient", "sample":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if fs.NArg() > 0 {
			ignored = append(ignored, "a script argument")
		}
		if len(ignored) > 0 {
			return fmt.Errorf("-ranks runs the built-in scale checkpoint, which ignores %s", strings.Join(ignored, ", "))
		}
	} else if fs.NArg() != 1 && !(*doValidate && fs.NArg() == 0) {
		return fmt.Errorf("usage: simfs [flags] <workload.iol> (the script may be omitted with -validate or -ranks)")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, ferr := os.Create(*memprofile)
			if ferr == nil {
				runtime.GC()
				ferr = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if err == nil {
				err = ferr
			}
		}()
	}
	if *scaleRanks > 0 {
		sc := scaleOpts{
			ranks: *scaleRanks, shards: *shards, workers: *shardWorkers,
			steps: *steps, bytesPerRank: *bytesPerRank, xfer: *xfer,
			ranksPerNode: *ranksPerNode, validate: *doValidate,
			workersSweep: *workersSweep,
		}
		if sc.workersSweep > 0 {
			return runWorkersSweep(stdout, cluster, sc)
		}
		return runScale(stdout, cluster, sc)
	}
	src := []byte(defaultScenario)
	if fs.NArg() == 1 {
		src, err = os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
	}
	wl, err := iolang.Parse(string(src))
	if err != nil {
		return err
	}
	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	if *resilient || *faultSpec != "" {
		cfg.Resilience = pfs.DefaultResilience()
	}

	e := des.NewEngine(cluster.Seed)
	sim := pfs.New(e, cfg)
	var inv *validate.Invariants
	var col *trace.Collector
	if *doValidate {
		col = trace.NewCollector()
		col.SetLimit(1) // records flow through the invariant hook; retention is not needed
		inv = validate.Attach(e, sim, col)
	}
	var sampler *monitor.Sampler
	if *sample {
		sampler = monitor.NewSampler(e, sim, 10*des.Millisecond, des.Hour)
	}
	var fc *faults.Scheduler
	if *faultSpec != "" {
		c, err := faults.ParseCampaign(*faultSpec)
		if err != nil {
			return err
		}
		if fc, err = faults.Run(e, sim, c); err != nil {
			return err
		}
	}
	prov, err := campaign.Stack{Tier: *tier, Compress: *compress}.Build(e, sim)
	if err != nil {
		return err
	}
	if inv != nil {
		inv.ObserveTier(prov)
	}
	rep, err := iolang.RunOn(e, sim, wl, col, prov)
	if err != nil {
		return err
	}
	if sampler != nil {
		sampler.Stop()
	}

	fmt.Fprintf(stdout, "workload %q: %d ranks, makespan %v, read %s, wrote %s\n",
		rep.Name, rep.Ranks, rep.Makespan,
		cli.FormatSize(rep.BytesRead), cli.FormatSize(rep.BytesWritten))

	fmt.Fprintln(stdout, "\nOST counters:")
	fmt.Fprintf(stdout, "  %-6s %-8s %12s %12s %8s\n", "ost", "oss", "read", "written", "util")
	for _, st := range sim.OSTStats() {
		fmt.Fprintf(stdout, "  ost%-3d %-8s %12s %12s %7.1f%%\n",
			st.ID, st.OSSNode, cli.FormatSize(st.BytesRead), cli.FormatSize(st.BytesWritten), st.Utilization*100)
	}

	md := sim.MDSStats()
	fmt.Fprintf(stdout, "\nMDS: %d ops total\n", md.TotalOps)
	ops := make([]string, 0, len(md.Ops))
	for op := range md.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(stdout, "  %-10s %8d\n", op, md.Ops[op])
	}

	switch prov.Tier() {
	case storage.TierBB:
		fmt.Fprintln(stdout, "\nburst buffers:")
		for _, bb := range prov.Buffers() {
			st := bb.Stats()
			fmt.Fprintf(stdout, "  %-8s absorbed %s, drained %s, peak %s, %d stalls, reads %s staged / %s through\n",
				bb.Node(), cli.FormatSize(st.Absorbed), cli.FormatSize(st.Drained),
				cli.FormatSize(st.PeakUsed), st.Stalls,
				cli.FormatSize(st.BufReads), cli.FormatSize(st.MissReads))
			if st.DrainErrors > 0 {
				fmt.Fprintf(stdout, "  %-8s DRAIN ERRORS: %d segments (%s) lost; last: %v\n",
					bb.Node(), st.DrainErrors, cli.FormatSize(st.LostBytes), st.LastDrainError)
			}
			if st.ReadErrors > 0 {
				fmt.Fprintf(stdout, "  %-8s READ ERRORS: %d read-through failures; last: %v\n",
					bb.Node(), st.ReadErrors, st.LastReadError)
			}
		}
	case storage.TierNodeLocal:
		fmt.Fprintln(stdout, "\nnode-local scratch:")
		for _, nl := range prov.Locals() {
			st := nl.Stats()
			fmt.Fprintf(stdout, "  %-10s read %s, wrote %s, %d files\n",
				st.Name, cli.FormatSize(st.BytesRead), cli.FormatSize(st.BytesWritten), st.Files)
		}
	}

	for _, stage := range prov.Stages() {
		if acct, ok := stage.(storage.StageAccounting); ok {
			st := acct.StageStats()
			fmt.Fprintf(stdout, "\ncompression (%s):\n", stage.Name())
			fmt.Fprintf(stdout, "  wrote logical %s -> physical %s (ratio %.2f), cpu %.4fs\n",
				cli.FormatSize(st.LogicalWritten), cli.FormatSize(st.PhysicalWritten), st.Ratio(), st.CompressSeconds)
			fmt.Fprintf(stdout, "  read  logical %s <- physical %s, cpu %.4fs\n",
				cli.FormatSize(st.LogicalRead), cli.FormatSize(st.PhysicalRead), st.DecompressSeconds)
		}
	}

	if fc != nil {
		fmt.Fprintln(stdout, "\nfault campaign:")
		for _, a := range fc.Log() {
			if a.Err != nil {
				fmt.Fprintf(stdout, "  %v (inject error: %v)\n", a.Event, a.Err)
			} else {
				fmt.Fprintf(stdout, "  %v\n", a.Event)
			}
		}
		cs := sim.ClientStatsTotal()
		fmt.Fprintf(stdout, "resilience: %d retries, %d timed-out RPCs, %d failed RPCs, %d degraded reads (%s missing)\n",
			cs.Retries, cs.TimedOutRPCs, cs.FailedRPCs, cs.DegradedReads, cli.FormatSize(cs.BytesMissing))
	}

	if sampler != nil {
		fmt.Fprintln(stdout, "\nsampled aggregate bandwidth (MB/s):")
		for _, r := range sampler.DeriveRates() {
			if r.ReadBps == 0 && r.WriteBps == 0 {
				continue
			}
			fmt.Fprintf(stdout, "  t=%-12v read %10.1f  write %10.1f  imbalance %.2f\n",
				r.At, r.ReadBps/1e6, r.WriteBps/1e6, r.LoadImbalance)
		}
	}

	if inv != nil {
		vios := inv.Finish()
		st := inv.Stats()
		fmt.Fprintf(stdout, "\nvalidation: %d dispatches, %d trace records, %d client ops, %d OST events checked\n",
			st.Dispatches, st.TraceRecords, st.ClientOps, st.OSTEvents)
		if len(vios) == 0 {
			fmt.Fprintln(stdout, "validation: all invariants held")
		} else {
			for _, v := range vios {
				fmt.Fprintf(stdout, "validation: VIOLATION %s\n", v)
			}
			return fmt.Errorf("%d invariant violation(s)", len(vios))
		}
	}
	return nil
}

// scaleOpts bundles the -ranks scale-mode knobs.
type scaleOpts struct {
	ranks, shards, workers, steps int
	bytesPerRank, xfer            int64
	ranksPerNode                  int
	validate                      bool
	workersSweep                  int
}

// scaleConfig translates the CLI knobs into the workload config.
func (o scaleOpts) scaleConfig() workload.ScaleConfig {
	return workload.ScaleConfig{
		Ranks:        o.ranks,
		BytesPerRank: o.bytesPerRank,
		Steps:        o.steps,
		TransferSize: o.xfer,
		RanksPerNode: o.ranksPerNode,
		// A million per-process files striped wide is not how FPP
		// checkpoints behave: one stripe per file.
		StripeCount: 1,
	}
}

// reportHash is a stable digest of every simulated quantity in a sharded
// report — everything except the host-side Workers knob — used to assert
// byte-identical output across a worker sweep.
func reportHash(rep workload.ShardedReport) uint64 {
	rep.Workers = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", rep)
	return h.Sum64()
}

// runWorkersSweep runs the identical sharded scale config at worker counts
// 1, 2, 4, ... up to o.workersSweep (always including the max), printing a
// wall-clock speedup/parallel-efficiency table and verifying that every
// worker count produces the same simulated output. It fails when the
// outputs diverge (a determinism bug) or an armed invariant fired.
func runWorkersSweep(stdout io.Writer, cluster cli.ClusterFlags, o scaleOpts) error {
	if o.shards <= 1 {
		return fmt.Errorf("-workers-sweep needs -shards > 1")
	}
	cfg, err := cluster.Config()
	if err != nil {
		return err
	}
	var counts []int
	for w := 1; w < o.workersSweep; w *= 2 {
		counts = append(counts, w)
	}
	counts = append(counts, o.workersSweep)

	fmt.Fprintf(stdout, "workers sweep: %d ranks x %d shards, %d step(s), %s/rank, %d host cores\n",
		o.ranks, o.shards, o.steps, cli.FormatSize(o.bytesPerRank), runtime.NumCPU())
	fmt.Fprintf(stdout, "  %-8s %-12s %-9s %-11s %-8s %s\n",
		"workers", "wall", "speedup", "efficiency", "windows", "output-hash")

	ok := true
	var baseWall time.Duration
	var baseHash uint64
	for i, w := range counts {
		oo := o
		oo.workers = w
		rep, invs, _, wall := runShardedOnce(cfg, cluster.Seed, oo)
		hash := reportHash(rep)
		if !reportViolations(stdout, invs) {
			ok = false
		}
		if i == 0 {
			baseWall, baseHash = wall, hash
		}
		speedup := float64(baseWall) / float64(wall)
		fmt.Fprintf(stdout, "  %-8d %-12v %-9s %-11s %-8d %016x\n",
			w, wall.Round(time.Millisecond),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f%%", 100*speedup/float64(w)),
			rep.Windows, hash)
		if hash != baseHash {
			fmt.Fprintf(stdout, "sweep: OUTPUT MISMATCH at workers=%d (hash %016x, want %016x)\n", w, hash, baseHash)
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("workers sweep failed")
	}
	fmt.Fprintf(stdout, "sweep: output byte-identical across workers %v\n", counts)
	return nil
}

// runShardedOnce executes one scale run. It returns the report, the
// invariant checkers armed when o.validate is set, every shard's file
// system (kept reachable for heap measurement), and the host wall-clock
// time.
func runShardedOnce(cfg pfs.Config, seed int64, o scaleOpts) (workload.ShardedReport, []*validate.Invariants, []*pfs.FS, time.Duration) {
	var invs []*validate.Invariants
	var fss []*pfs.FS
	shcfg := workload.ShardedConfig{
		Scale: o.scaleConfig(), Shards: o.shards, Workers: o.workers,
		FS: cfg, Seed: seed,
		AttachShard: func(shard int, e *des.Engine, sim *pfs.FS) {
			fss = append(fss, sim)
			if o.validate {
				col := trace.NewCollector()
				col.SetLimit(1) // records flow through the invariant hook; retention is not needed
				invs = append(invs, validate.Attach(e, sim, col))
			}
		},
	}
	wall0 := time.Now()
	rep := workload.RunShardedCheckpoint(shcfg)
	return rep, invs, fss, time.Since(wall0)
}

// reportViolations prints every violation the checkers recorded and
// reports whether all invariants held.
func reportViolations(stdout io.Writer, invs []*validate.Invariants) bool {
	ok := true
	for _, inv := range invs {
		for _, v := range inv.Finish() {
			fmt.Fprintf(stdout, "validation: VIOLATION %s\n", v)
			ok = false
		}
	}
	return ok
}

// runScale executes the built-in scale checkpoint: a file-per-process
// HACC-IO-like dump where every rank is a continuation-form event process
// (no goroutine per rank), optionally sharded across engines under a
// ParallelGroup. It reports simulated results plus host-side cost — wall
// time, event throughput, and heap bytes per rank. It fails when an
// armed invariant was violated.
func runScale(stdout io.Writer, cluster cli.ClusterFlags, o scaleOpts) error {
	cfg, err := cluster.Config()
	if err != nil {
		return err
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, invs, fss, wall := runShardedOnce(cfg, cluster.Seed, o)
	if o.shards > 1 {
		fmt.Fprintf(stdout, "sharded: %d shards (workers %d), ranks/shard %v, lookahead %v, %d windows\n",
			rep.Shards, rep.Workers, rep.RanksPerShard, rep.Lookahead, rep.Windows)
	}
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	heapPerRank := int64(0)
	if m1.HeapAlloc > m0.HeapAlloc {
		heapPerRank = int64(m1.HeapAlloc-m0.HeapAlloc) / int64(o.ranks)
	}
	// The file systems stay reachable through the heap measurement, so
	// "heap B/rank" reports retained simulator footprint (engine pool,
	// clients, namespace) instead of zero after collection.
	runtime.KeepAlive(fss)

	nodes := (o.ranks + o.ranksPerNode - 1) / o.ranksPerNode
	fmt.Fprintf(stdout, "scale checkpoint: %d ranks (%d nodes x %d), %d step(s), %s/rank\n",
		o.ranks, nodes, o.ranksPerNode, o.steps, cli.FormatSize(o.bytesPerRank))
	fmt.Fprintf(stdout, "  simulated: makespan %v, %s checkpointed, effective %.1f MB/s, %d I/O errors\n",
		rep.Makespan, cli.FormatSize(rep.TotalBytes), rep.EffectiveMBps, rep.IOErrors)
	evRate := float64(rep.Events) / wall.Seconds()
	fmt.Fprintf(stdout, "  host: %d events in %v (%.2fM events/s), heap %d B/rank\n",
		rep.Events, wall.Round(time.Millisecond), evRate/1e6, heapPerRank)

	ok := reportViolations(stdout, invs)
	if o.validate {
		var disp, recs, clops, ostev uint64
		for _, inv := range invs {
			st := inv.Stats()
			disp += st.Dispatches
			recs += st.TraceRecords
			clops += st.ClientOps
			ostev += st.OSTEvents
		}
		fmt.Fprintf(stdout, "validation: %d dispatches, %d trace records, %d client ops, %d OST events checked\n",
			disp, recs, clops, ostev)
		if ok {
			fmt.Fprintln(stdout, "validation: all invariants held")
		}
	}
	if !ok {
		return fmt.Errorf("invariant violation(s)")
	}
	return nil
}
