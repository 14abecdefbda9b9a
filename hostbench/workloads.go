package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pioeval/internal/campaign"
	"pioeval/internal/des"
	"pioeval/internal/io500"
	"pioeval/internal/pfs"
	"pioeval/internal/serve"
	"pioeval/internal/serve/loadtest"
	"pioeval/internal/trace"
	"pioeval/internal/validate"
	"pioeval/internal/workload"
)

// runner runs one set of inputs the benchmark runs. Every call into the
// program goes through the layer's public functions.
type runner interface {
	// setup builds the inputs from the seed and warms the path with one
	// small call; it runs several times and is timed as setup_s.
	setup() error
	// pass runs the workload once at the given worker count inside
	// rec.region, recording each unit call, and returns a digest of every
	// simulated output ("" when outputs differ from pass to pass).
	pass(workers int, rec *recorder) string
	// finish runs the post-timing correctness gates and fills the
	// workload's per-layer counters.
	finish(timed *recorder)
	close()
}

// armer is a workload that can run one pass with the invariants armed.
type armer interface {
	armedPass(rec *recorder) (digest string, violations int)
}

// env is what every workload shares: its seed, the host's core count,
// the failure tally and the per-layer values it measured.
type env struct {
	seed  int64
	nproc int
	t     *tally
	layer map[string]float64
	notes []string
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// safe runs fn, turning a panic (a simulated deadlock, say) into an error.
func safe(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

func digestOf(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---- scale-ckpt ----

// scaleHash is the output digest of the 100k-rank, 8-shard checkpoint, as
// simfs -workers-sweep prints it. The scale path draws no random numbers,
// so the digest is the same at every seed and worker count.
const scaleHash = "ed3256b76fc60f6c"

const scaleRanks = 100_000

type scaleCkpt struct {
	*env
	heapPerRank []float64
}

func (w *scaleCkpt) config(ranks, workers int) workload.ShardedConfig {
	fs := pfs.DefaultConfig()
	fs.NumIONodes = 0
	return workload.ShardedConfig{
		Scale: workload.ScaleConfig{
			Ranks: ranks, BytesPerRank: 1 << 20, Steps: 1, TransferSize: 1 << 20,
			RanksPerNode: 64, StripeCount: 1,
		},
		Shards: 8, Workers: workers, FS: fs, Seed: w.seed,
	}
}

func (w *scaleCkpt) setup() error {
	// Warm up at an eighth of the scale: the allocator, the page cache of
	// the heap and the shard worker pool are all exercised.
	rep := workload.RunShardedCheckpoint(w.config(scaleRanks/8, w.nproc))
	if rep.IOErrors != 0 {
		return fmt.Errorf("warm-up checkpoint: %d I/O errors", rep.IOErrors)
	}
	return nil
}

func shardedDigest(rep workload.ShardedReport) string {
	rep.Workers = 0
	return digestOf([]byte(fmt.Sprintf("%+v", rep)))
}

// run executes one checkpoint, keeping every shard's file system until
// the retained heap has been measured.
func (w *scaleCkpt) run(workers int, rec *recorder, arm bool) (string, int) {
	cfg := w.config(scaleRanks, workers)
	var fss []*pfs.FS
	var invs []*validate.Invariants
	cfg.AttachShard = func(_ int, e *des.Engine, fs *pfs.FS) {
		fss = append(fss, fs)
		if arm {
			col := trace.NewCollector()
			col.SetLimit(1)
			invs = append(invs, validate.Attach(e, fs, col))
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var rep workload.ShardedReport
	var err error
	rec.region(func() {
		err = rec.time("workload.RunShardedCheckpoint", "", func() error {
			return safe(func() error { rep = workload.RunShardedCheckpoint(cfg); return nil })
		})
	})
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if !w.t.check(err == nil, "scale-ckpt: %v", err) {
		return "", 0
	}
	if m1.HeapAlloc > m0.HeapAlloc && !arm {
		w.heapPerRank = append(w.heapPerRank, float64(m1.HeapAlloc-m0.HeapAlloc)/scaleRanks)
	}
	runtime.KeepAlive(fss)
	w.t.check(rep.IOErrors == 0, "scale-ckpt: %d I/O errors in a fault-free run", rep.IOErrors)
	d := shardedDigest(rep)
	w.t.check(d == scaleHash, "scale-ckpt: output digest %s, want %s", d, scaleHash)

	var mds, retries uint64
	for _, fs := range fss {
		mds += fs.MDSStats().TotalOps
		retries += fs.ClientStatsTotal().Retries
	}
	w.layer["des.dispatches"] = float64(rep.Events)
	w.layer["des.windows"] = float64(rep.Windows)
	w.layer["pfs.mds_ops"] = float64(mds)
	w.layer["pfs.retries"] = float64(retries)
	vios := 0
	for _, inv := range invs {
		vios += len(inv.Finish())
	}
	return d, vios
}

func (w *scaleCkpt) pass(workers int, rec *recorder) string {
	d, _ := w.run(workers, rec, false)
	return d
}

func (w *scaleCkpt) armedPass(rec *recorder) (string, int) { return w.run(w.nproc, rec, true) }

func (w *scaleCkpt) finish(timed *recorder) {
	w.layer["heap_B_per_rank"] = median(w.heapPerRank)
	if wall := timed.wallMedian(); wall > 0 {
		w.note("sim_events_per_s %.0f events/s (%0.f events per pass)", w.layer["des.dispatches"]/wall, w.layer["des.dispatches"])
	}
	w.note("heap_B_per_rank %.1f B/rank (median of %d passes)", median(w.heapPerRank), len(w.heapPerRank))
}

func (w *scaleCkpt) close() {}

// ---- ior-grid ----

// iorGridSpec is the IOR grid, 72 points: device x stripe count x
// transfer size x access pattern x collective, write plus read-back.
const iorGridSpec = `
campaign "ior-grid" {
    workload ior
    seed %d
    ranks 4
    device hdd, ssd, nvme
    stripe-count 1, 4
    transfer-size 64KB, 1MB
    pattern sequential, strided, random
    collective false, true
}
`

type iorGrid struct {
	*env
	specs  []campaign.Spec // one single-run spec per grid point
	labels []string
}

func (w *iorGrid) setup() error {
	spec, err := campaign.ParseSpec(fmt.Sprintf(iorGridSpec, w.seed))
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	w.specs, w.labels = nil, nil
	for i, p := range spec.Expand() {
		w.specs = append(w.specs, campaign.Spec{
			Name: "ior-grid", Workload: campaign.WorkloadIOR, Seed: campaign.RunSeed(spec.Seed, i),
			Ranks: []int{p.Ranks}, Devices: []string{p.Device},
			StripeCounts: []int{p.StripeCount}, StripeSizes: []int64{p.StripeSize},
			BlockSizes: []int64{p.BlockSize}, TransferSizes: []int64{p.TransferSize},
			Patterns: []string{p.Pattern}, Collective: []bool{p.Collective},
		})
		mode := "independent"
		if p.Collective {
			mode = "collective"
		}
		w.labels = append(w.labels, mode)
	}
	_, err = campaign.Run(w.specs[0], campaign.Options{Workers: 1})
	return err
}

func (w *iorGrid) pass(workers int, rec *recorder) string {
	out := make([][]byte, len(w.specs))
	retries := make([]float64, len(w.specs))
	var pr campaign.PoolResult
	rec.region(func() {
		pr = campaign.Pool(len(w.specs), campaign.Options{Workers: workers}, func(i int) {
			var rep *campaign.Report
			err := rec.time("campaign.Run", w.labels[i], func() error {
				var err error
				rep, err = campaign.Run(w.specs[i], campaign.Options{Workers: 1})
				return err
			})
			if !w.t.check(err == nil, "ior-grid run %d: %v", i, err) {
				return
			}
			m := rep.Runs[0].Metrics
			w.t.check(len(rep.Errors) == 0 && !rep.Cancelled, "ior-grid run %d: job errors %v", i, rep.Errors)
			w.t.check(m["failed_rpcs"] == 0 && m["timed_out_rpcs"] == 0,
				"ior-grid run %d: I/O errors in a fault-free run (failed %v, timed out %v)", i, m["failed_rpcs"], m["timed_out_rpcs"])
			retries[i] = m["retries"]
			var b bytes.Buffer
			if err := rep.WriteJSON(&b); err != nil {
				w.t.check(false, "ior-grid run %d: %v", i, err)
			}
			out[i] = b.Bytes()
		})
	})
	for _, p := range pr.Panicked {
		w.t.check(false, "ior-grid run %d panicked: %s", p.Index, p.Value)
	}
	var sum float64
	for _, r := range retries {
		sum += r
	}
	w.layer["pfs.retries"] = sum
	return digestOf(out...)
}

func (w *iorGrid) finish(timed *recorder) {
	for _, mode := range []string{"collective", "independent"} {
		w.layer["mpiio."+mode+"_run_ms"] = median(timed.latencies(func(l string) bool { return l == mode }))
	}
}

func (w *iorGrid) close() {}

// ---- io500-tiers ----

type io500Tiers struct {
	*env
	configs []io500.Config
	labels  []string
}

// io500Ranks is the ranks axis of each tier. nodelocal runs at 4 ranks
// only: at 8 ranks (two nodes) the simulator loses half of ior-hard's
// shared-file bytes on node-local storage, a known defect that
// knownDefect reports on every run without counting it as a failure.
var io500Ranks = map[string][]int{"direct": {4, 8}, "bb": {4, 8}, "nodelocal": {4}}

func (w *io500Tiers) setup() error {
	w.configs, w.labels = nil, nil
	for _, dev := range []string{"hdd", "ssd", "nvme"} {
		for _, tier := range []string{"direct", "bb", "nodelocal"} {
			for _, comp := range []string{"none", "lz"} {
				for _, ranks := range io500Ranks[tier] {
					c := io500.Config{Ranks: ranks, Device: dev, Tier: tier, Compress: comp, Seed: w.seed}
					if err := c.Validate(); err != nil {
						return err
					}
					w.configs = append(w.configs, c)
					w.labels = append(w.labels, dev+"/"+tier+"/"+comp)
				}
			}
		}
	}
	c := w.configs[0]
	c.Workers = w.nproc
	_, err := io500.Run(c)
	return err
}

func (w *io500Tiers) run(workers int, rec *recorder, arm bool) (string, int) {
	out := make([][]byte, len(w.configs))
	var mds float64
	vios := 0
	rec.region(func() {
		for i, c := range w.configs {
			c.Workers, c.Check = workers, arm
			var res *io500.Result
			err := rec.time("io500.Run", w.labels[i], func() error {
				return safe(func() error {
					var err error
					res, err = io500.Run(c)
					return err
				})
			})
			if !w.t.check(err == nil, "io500 %s ranks %d: %v", w.labels[i], c.Ranks, err) {
				continue
			}
			w.t.check(res.Score > 0, "io500 %s ranks %d: score %v", w.labels[i], c.Ranks, res.Score)
			vios += len(res.Violations)
			for _, p := range res.Phases {
				if p.Kind == io500.KindMD {
					mds += float64(p.Ops)
				}
			}
			var b bytes.Buffer
			if err := res.WriteJSON(&b); err != nil {
				w.t.check(false, "io500 %s: %v", w.labels[i], err)
			}
			out[i] = b.Bytes()
		}
	})
	w.layer["pfs.mds_ops"] = mds
	return digestOf(out...), vios
}

func (w *io500Tiers) pass(workers int, rec *recorder) string {
	d, _ := w.run(workers, rec, false)
	return d
}

func (w *io500Tiers) armedPass(rec *recorder) (string, int) { return w.run(w.nproc, rec, true) }

// knownDefect runs the configuration left out of the grid once, armed,
// and prints whether the simulator still loses bytes there. It is outside
// the workload: it is neither timed nor counted in attempted or failed.
func (w *io500Tiers) knownDefect() {
	c := io500.Config{Ranks: 8, Device: "ssd", Tier: "nodelocal", Seed: w.seed, Workers: w.nproc, Check: true}
	var res *io500.Result
	err := safe(func() error {
		var err error
		res, err = io500.Run(c)
		return err
	})
	switch {
	case err != nil:
		w.note("known defect probe (not counted): ssd/nodelocal at 8 ranks: %v", err)
	case len(res.Violations) == 0:
		w.note("known defect probe (not counted): ssd/nodelocal at 8 ranks now holds every invariant; put nodelocal at 8 ranks back in the grid")
	default:
		w.note("known defect probe (not counted): ssd/nodelocal at 8 ranks, %d armed violations, first: %v", len(res.Violations), res.Violations[0])
	}
}

func (w *io500Tiers) finish(timed *recorder) {
	w.knownDefect()
	split := func(name string, part int, values ...string) {
		for _, v := range values {
			w.layer[name+v] = median(timed.latencies(func(l string) bool { return strings.Split(l, "/")[part] == v }))
		}
	}
	split("io500.run_ms.", 0, "hdd", "ssd", "nvme")
	split("storage.run_ms.", 1, "direct", "bb", "nodelocal")
	split("reduce.run_ms.", 2, "none", "lz")
}

func (w *io500Tiers) close() {}

// ---- siod-mixed ----

// A pass is loadtest's default run, 200 submissions over a 16-spec hot
// set, with fresh specs and twins mixed in. The shares are this
// benchmark's choice, not a measured trace: about a third of the
// requests hit the cache, each twin pair can share one flight, and the
// fresh misses, which run campaign, take most of a pass.
const (
	siodPassRequests = 200
	siodHotSpecs     = 16
	siodHotShare     = 0.35 // then fresh misses up to 0.9, and twin pairs
	siodFreshShare   = 0.55
	siodVerifyMisses = 40
)

var (
	siodDevices   = []string{"hdd", "ssd", "nvme"}
	siodPatterns  = []string{"sequential", "strided", "random"}
	siodTransfers = []string{"256KB", "1MB"}
)

// siodSpec is a small seeded campaign: one IOR run of 2 or 4 ranks, 4 MB
// per rank. At 1 MB per rank a miss was mostly loopback wake-ups, and the
// pass time followed the shared host's load twice as much as it does here.
func siodSpec(r *rand.Rand) string {
	return fmt.Sprintf("campaign \"siod\" {\n    workload ior\n    seed %d\n    ranks %d\n    device %s\n    stripe-count %d\n    block-size 4MB\n    transfer-size %s\n    pattern %s\n}\n",
		r.Int63n(1<<40), 2+2*r.Intn(2), siodDevices[r.Intn(3)], 1+r.Intn(4),
		siodTransfers[r.Intn(2)], siodPatterns[r.Intn(3)])
}

type siodReq struct {
	body string
	hot  int // index into the hot set, or -1
	twin int // index of the request this one repeats, or -1
}

type siodMixed struct {
	*env
	srv     *serve.Server
	httpSrv *http.Server
	served  sync.WaitGroup
	base    string
	client  *http.Client
	hot     []string
	hotBody [][]byte
	passNo  int
	// misses kept from the first pass, checked against campaign.Run.
	verify [][2][]byte
	// replies by cache outcome (hit, miss, shared) since the daemon started.
	outcomes map[string]*atomic.Uint64
}

func (w *siodMixed) setup() error {
	w.close()
	w.srv = serve.New(serve.Config{
		Workers: w.nproc,
		// The token bucket sits far above the offered load: it runs on
		// every request but sheds nothing.
		Rate: 1e6, Burst: 1_000_000,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.httpSrv = &http.Server{Handler: w.srv.Mux()}
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		// Serve returns http.ErrServerClosed once close shuts it down.
		_ = w.httpSrv.Serve(ln)
	}()
	w.base = "http://" + ln.Addr().String()
	w.outcomes = map[string]*atomic.Uint64{"hit": {}, "miss": {}, "shared": {}}
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: w.nproc, MaxConnsPerHost: w.nproc,
	}}
	r := rand.New(rand.NewSource(w.seed))
	w.hot, w.hotBody = nil, nil
	for i := 0; i < siodHotSpecs; i++ {
		w.hot = append(w.hot, siodSpec(r))
		status, _, body, err := w.post(w.hot[i], 0)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warming hot spec %d: status %d: %v %s", i, status, err, body)
		}
		w.hotBody = append(w.hotBody, body)
	}
	w.passNo, w.verify = 0, nil
	return nil
}

// post submits one spec and returns the status, the cache outcome and the body.
func (w *siodMixed) post(spec string, client int) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/campaigns", strings.NewReader(spec))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("X-Client-ID", fmt.Sprintf("client-%d", client))
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	outcome := "miss"
	switch {
	case resp.Header.Get("X-Cache") == "hit":
		outcome = "hit"
	case resp.Header.Get("X-Singleflight") == "shared":
		outcome = "shared"
	}
	w.outcomes[outcome].Add(1)
	return resp.StatusCode, outcome, body, err
}

// plan draws one pass's requests: hot-set repeats (cache hits), fresh
// specs (misses that run a campaign) and back-to-back twins of a fresh
// spec (single-flight when both are in flight, a hit otherwise).
func (w *siodMixed) plan(pass int) []siodReq {
	r := rand.New(rand.NewSource(w.seed*1_000_003 + int64(pass) + 1))
	var reqs []siodReq
	for len(reqs) < siodPassRequests {
		x := r.Float64()
		switch {
		case x < siodHotShare:
			h := r.Intn(len(w.hot))
			reqs = append(reqs, siodReq{body: w.hot[h], hot: h, twin: -1})
		case x < siodHotShare+siodFreshShare:
			reqs = append(reqs, siodReq{body: siodSpec(r), hot: -1, twin: -1})
		default:
			s := siodSpec(r)
			reqs = append(reqs, siodReq{body: s, hot: -1, twin: -1}, siodReq{body: s, hot: -1, twin: len(reqs)})
		}
	}
	return reqs
}

func (w *siodMixed) pass(workers int, rec *recorder) string {
	reqs := w.plan(w.passNo)
	first := w.passNo == 0
	w.passNo++
	bodies := make([][]byte, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	rec.region(func() {
		for c := 0; c < w.nproc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					t0 := time.Now()
					status, outcome, body, err := w.post(reqs[i].body, c)
					rec.record("serve.POST", outcome, t0, time.Now())
					if w.t.check(err == nil && status == http.StatusOK, "siod request: status %d: %v", status, err) {
						bodies[i] = body
					}
				}
			}(c)
		}
		wg.Wait()
	})
	for i, q := range reqs {
		switch {
		case bodies[i] == nil:
		case q.hot >= 0:
			w.t.check(bytes.Equal(bodies[i], w.hotBody[q.hot]), "siod: hot spec %d reply differs from its first reply", q.hot)
		case q.twin >= 0:
			w.t.check(bytes.Equal(bodies[i], bodies[q.twin]), "siod: twin replies differ")
		case first && len(w.verify) < siodVerifyMisses:
			w.verify = append(w.verify, [2][]byte{[]byte(q.body), bodies[i]})
		}
	}
	return ""
}

func (w *siodMixed) finish(timed *recorder) {
	// Each fresh reply must be exactly what campaign.Run gives for its spec.
	for _, v := range w.verify {
		spec, err := campaign.ParseSpec(string(v[0]))
		var rep *campaign.Report
		if err == nil {
			rep, err = campaign.Run(spec, campaign.Options{Workers: 1})
		}
		var b bytes.Buffer
		if err == nil {
			err = rep.WriteJSON(&b)
		}
		w.t.check(err == nil && bytes.Equal(b.Bytes(), v[1]), "siod: reply differs from campaign.Run of its spec (%v)", err)
	}
	snap, err := loadtest.WaitIdle(w.base, 10*time.Second)
	if !w.t.check(err == nil, "siod metrics: %v", err) {
		return
	}
	w.t.check(snap.AccountingError() == nil, "siod: %v", snap.AccountingError())
	// The daemon's counters must agree with the replies' cache headers,
	// and the twins must have shared a flight at least once in the run.
	hits, misses, shared := w.outcomes["hit"].Load(), w.outcomes["miss"].Load(), w.outcomes["shared"].Load()
	w.t.check(snap.CacheHits == hits && snap.CacheMisses == misses+shared && snap.SingleflightShared == shared,
		"siod: /metrics hits %d misses %d shared %d, replies hit %d miss %d shared %d",
		snap.CacheHits, snap.CacheMisses, snap.SingleflightShared, hits, misses, shared)
	w.t.check(shared > 0, "siod: no request shared a flight")
	w.layer["serve.cache_hit_rate"] = snap.CacheHitRate
	w.layer["serve.singleflight_shared"] = float64(snap.SingleflightShared)
	w.layer["serve.dropped"] = float64(snap.Dropped)
	w.layer["serve.rejected"] = float64(snap.RejectedRateLimit + snap.RejectedBusy + snap.RejectedDraining +
		snap.RejectedInvalid + snap.RejectedTooLarge)
	w.layer["serve.p95_job_ms"] = snap.P95JobLatencyMs
	w.layer["serve.hit_req_ms.p50"] = median(timed.latencies(func(l string) bool { return l == "hit" }))
	w.layer["serve.miss_req_ms.p50"] = median(timed.latencies(func(l string) bool { return l == "miss" }))
	w.note("gate: hot and twin replies identical, %d fresh replies equal campaign.Run, accounting balanced, /metrics counts equal reply headers", len(w.verify))
	lat := timed.latencies(nil)
	perPass := func(o string) float64 {
		return float64(len(timed.latencies(func(l string) bool { return l == o }))) / float64(len(timed.passes))
	}
	w.note("replies per timed pass: %.1f hit, %.1f miss, %.1f shared", perPass("hit"), perPass("miss"), perPass("shared"))
	if wall := timed.wallMedian(); wall > 0 {
		w.note("req_per_s %.1f req/s (%d requests per pass)", siodPassRequests/wall, siodPassRequests)
	}
	w.note("req_ms.p50 %.4f ms (n=%d)", median(lat), len(lat))
	if tailOK(len(lat), 99) {
		w.note("req_ms.p99 %.4f ms (n=%d, %d beyond)", percentile(lat, 99), len(lat), len(lat)/100)
	} else {
		w.note("req_ms.p99 not reported: %d requests leave fewer than ten beyond it", len(lat))
	}
}

func (w *siodMixed) close() {
	if w.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.httpSrv.Shutdown(ctx); err != nil {
		w.t.check(false, "siod http shutdown: %v", err)
	}
	w.served.Wait()
	if err := w.srv.Shutdown(ctx); err != nil {
		w.t.check(false, "siod drain: %v", err)
	}
	w.client.CloseIdleConnections()
	w.httpSrv, w.srv = nil, nil
}
