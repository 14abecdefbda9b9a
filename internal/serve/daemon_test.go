package serve_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioeval/internal/campaign"
	"pioeval/internal/leakcheck"
	"pioeval/internal/serve"
	"pioeval/internal/serve/loadtest"
)

// daemon is an in-process siod: a real Server behind a real TCP listener
// (not httptest, so read timeouts and raw-connection attacks behave as
// in production).
type daemon struct {
	srv  *serve.Server
	http *http.Server
	url  string
}

// startDaemon boots a daemon and registers an orderly teardown. Tests
// that shut the daemon down themselves set d.srv to nil first.
func startDaemon(t *testing.T, cfg serve.Config) *daemon {
	t.Helper()
	d := &daemon{srv: serve.New(cfg)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.http = &http.Server{
		Handler:           d.srv.Mux(),
		ReadHeaderTimeout: 2 * time.Second,
		ReadTimeout:       time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go d.http.Serve(ln)
	d.url = "http://" + ln.Addr().String()
	t.Cleanup(func() {
		if d.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := d.srv.Shutdown(ctx); err != nil {
				t.Errorf("teardown Shutdown: %v", err)
			}
		}
		d.http.Close()
	})
	return d
}

func (d *daemon) submit(t *testing.T, spec, clientID string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/campaigns", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func tinySpec(seed int) string {
	return fmt.Sprintf(`
campaign "e2e" {
    workload ior
    seed %d
    ranks 2
    device hdd
    stripe-count 1
    block-size 1MB
    transfer-size 256KB
}
`, seed)
}

// blockingRunner returns a Runner that parks until release is closed (or
// the job context dies, yielding a Cancelled partial report), plus a
// counter of invocations.
func blockingRunner(release <-chan struct{}) (serve.Runner, *atomic.Int64) {
	var calls atomic.Int64
	return func(ctx context.Context, spec campaign.Spec, opt campaign.Options) (*campaign.Report, error) {
		calls.Add(1)
		select {
		case <-release:
			return &campaign.Report{Name: spec.Name, Workload: "ior", Seed: spec.Seed, Reps: 1}, nil
		case <-ctx.Done():
			return &campaign.Report{Name: spec.Name, Workload: "ior", Seed: spec.Seed, Reps: 1, Cancelled: true}, nil
		}
	}, &calls
}

// TestSubmitEndToEnd: a real spec through the real campaign runner comes
// back as the deterministic report JSON; resubmitting hits the cache
// byte-for-byte.
func TestSubmitEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	d := startDaemon(t, serve.Config{Workers: 2})
	resp, body := d.submit(t, tinySpec(1), "c1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"write_MBps"`) {
		t.Fatalf("report body missing metrics: %.200s", body)
	}
	if resp.Header.Get("X-Cache") == "hit" {
		t.Fatal("first submission served from cache")
	}
	resp2, body2 := d.submit(t, tinySpec(1), "c1")
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second submission not a cache hit (status %d, X-Cache %q)", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if body != body2 {
		t.Fatal("cached body differs from computed body")
	}
	snap := d.srv.Metrics().Snapshot()
	if snap.CacheHits != 1 || snap.Completed != 1 {
		t.Fatalf("cache_hits=%d completed=%d, want 1/1", snap.CacheHits, snap.Completed)
	}
}

// TestPoisonSpecsShedNotFatal: unparseable, invalid, and oversized specs
// are rejected at the door with the right statuses and never reach the
// queue; the daemon keeps serving afterwards.
func TestPoisonSpecsShedNotFatal(t *testing.T) {
	leakcheck.Check(t)
	d := startDaemon(t, serve.Config{Workers: 1, MaxRuns: 8, MaxRanks: 8})
	cases := []struct {
		spec string
		want int
	}{
		{"not a campaign at all", http.StatusBadRequest},
		{"campaign \"x\" {\n workload bogus\n}", http.StatusBadRequest},
		{"campaign \"x\" {\n ranks 0\n}", http.StatusBadRequest},
		{"campaign \"x\" {\n reps 100\n ranks 1, 2, 3\n}", http.StatusRequestEntityTooLarge},
		{"campaign \"x\" {\n ranks 4096\n}", http.StatusRequestEntityTooLarge},
		{strings.Repeat("z", 2<<20), http.StatusRequestEntityTooLarge},
	}
	for i, c := range cases {
		resp, body := d.submit(t, c.spec, "c1")
		if resp.StatusCode != c.want {
			t.Fatalf("case %d: status %d want %d (%s)", i, resp.StatusCode, c.want, body)
		}
	}
	snap := d.srv.Metrics().Snapshot()
	if snap.Enqueued != 0 {
		t.Fatalf("rejected specs reached the queue: enqueued=%d", snap.Enqueued)
	}
	if snap.RejectedInvalid != 3 || snap.RejectedTooLarge != 3 {
		t.Fatalf("rejected_invalid=%d rejected_too_large=%d, want 3/3", snap.RejectedInvalid, snap.RejectedTooLarge)
	}
	// Still alive.
	if resp, _ := d.submit(t, tinySpec(2), "c1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after poison: %d", resp.StatusCode)
	}
}

// TestHugeGridRejectedWithoutExpanding: a spec of a few KB whose five
// numeric axes of 60 values each multiply to 7.8e8 points gets 413 from
// its run count alone. Expanding it first would allocate about 100 GB of
// points before the reply.
func TestHugeGridRejectedWithoutExpanding(t *testing.T) {
	leakcheck.Check(t)
	d := startDaemon(t, serve.Config{Workers: 1, MaxRuns: 8, MaxRanks: 8})
	axis := func(name string, unit string) string {
		vals := make([]string, 60)
		for i := range vals {
			vals[i] = fmt.Sprintf("%d%s", i+1, unit)
		}
		return fmt.Sprintf(" %s %s\n", name, strings.Join(vals, ", "))
	}
	spec := "campaign \"huge\" {\n" + axis("ranks", "") + axis("stripe-count", "") +
		axis("stripe-size", "KB") + axis("block-size", "MB") + axis("transfer-size", "KB") + "}"
	if s, err := campaign.ParseSpec(spec); err != nil || s.Runs() != 60*60*60*60*60 {
		t.Fatalf("spec parses to %d runs (err %v), want 60^5", s.Runs(), err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body := d.submit(t, spec, "c1")
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d want 413 (%s)", resp.StatusCode, body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("rejecting the spec allocated %d MB", grew>>20)
	}
}

// TestSingleflightExecutesOnce: K identical specs submitted while the
// first is still running share one execution — the runner fires once and
// K-1 responses carry the shared marker.
func TestSingleflightExecutesOnce(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	runner, calls := blockingRunner(release)
	d := startDaemon(t, serve.Config{Workers: 2, Runner: runner})

	const K = 8
	var wg sync.WaitGroup
	statuses := make([]int, K)
	shared := make([]bool, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := d.submit(t, tinySpec(99), fmt.Sprintf("c%d", i))
			statuses[i] = resp.StatusCode
			shared[i] = resp.Header.Get("X-Singleflight") == "shared"
		}(i)
	}
	// Wait until all K have attached (1 leader enqueued + 7 shared).
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := d.srv.Metrics().Snapshot()
		if s.SingleflightShared == K-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d submissions attached to the flight", s.SingleflightShared, K-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner executed %d times for %d identical submissions", got, K)
	}
	nshared := 0
	for i := range statuses {
		if statuses[i] != http.StatusOK {
			t.Fatalf("submission %d got %d", i, statuses[i])
		}
		if shared[i] {
			nshared++
		}
	}
	if nshared != K-1 {
		t.Fatalf("%d shared markers, want %d", nshared, K-1)
	}
	snap := d.srv.Metrics().Snapshot()
	if snap.Enqueued != 1 || snap.Completed != 1 {
		t.Fatalf("enqueued=%d completed=%d, want 1/1", snap.Enqueued, snap.Completed)
	}
}

// TestBackpressureDropsWithRetryAfter: with one worker parked and the
// queue full, further submissions wait out the enqueue deadline and are
// shed with 429 + Retry-After, counted in the dropped-work metric — the
// daemon never buffers beyond its bound.
func TestBackpressureDropsWithRetryAfter(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	runner, _ := blockingRunner(release)
	d := startDaemon(t, serve.Config{
		QueueCap: 2, Workers: 1, Rate: -1, MaxInflight: 100,
		EnqueueTimeout: 50 * time.Millisecond,
		Runner:         runner,
	})
	const N = 10 // distinct specs: 1 running + 2 queued + 7 to shed
	var wg sync.WaitGroup
	var drops, oks atomic.Int64
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := d.submit(t, tinySpec(i), fmt.Sprintf("c%d", i))
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				drops.Add(1)
			case http.StatusOK:
				oks.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	// Let the queue fill and the stragglers time out, then unblock.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()
	if drops.Load() == 0 {
		t.Fatal("no submissions were dropped by backpressure")
	}
	if oks.Load() < 3 {
		t.Fatalf("only %d submissions completed; running+queued should survive", oks.Load())
	}
	snap, err := loadtest.WaitIdle(d.url, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dropped != uint64(drops.Load()) {
		t.Fatalf("metrics dropped=%d, clients saw %d drops", snap.Dropped, drops.Load())
	}
	if err := loadtest.CheckAccounting(snap); err != nil {
		t.Fatal(err)
	}
}

// TestRateLimitPerClient: one client hammering past its bucket gets 429s
// while a second client stays unaffected.
func TestRateLimitPerClient(t *testing.T) {
	leakcheck.Check(t)
	d := startDaemon(t, serve.Config{Workers: 2, Rate: 1, Burst: 2})
	limited := 0
	for i := 0; i < 5; i++ {
		resp, _ := d.submit(t, tinySpec(1), "greedy")
		if resp.StatusCode == http.StatusTooManyRequests {
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("greedy client never rate-limited")
	}
	if resp, _ := d.submit(t, tinySpec(1), "polite"); resp.StatusCode != http.StatusOK {
		t.Fatalf("polite client limited too: %d", resp.StatusCode)
	}
	if snap := d.srv.Metrics().Snapshot(); snap.RejectedRateLimit != uint64(limited) {
		t.Fatalf("rejected_ratelimit=%d, clients saw %d", snap.RejectedRateLimit, limited)
	}
}

// TestAdmissionGate: beyond MaxInflight admitted jobs, submissions are
// refused with 503 before touching the queue.
func TestAdmissionGate(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	runner, _ := blockingRunner(release)
	d := startDaemon(t, serve.Config{
		QueueCap: 64, Workers: 1, Rate: -1, MaxInflight: 2,
		EnqueueTimeout: 5 * time.Second, // queue has room; only the gate can refuse
		Runner:         runner,
	})
	var wg sync.WaitGroup
	var busy, oks atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := d.submit(t, tinySpec(i), fmt.Sprintf("c%d", i))
			switch resp.StatusCode {
			case http.StatusServiceUnavailable:
				busy.Add(1)
			case http.StatusOK:
				oks.Add(1)
			}
		}(i)
	}
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()
	if busy.Load() != 4 || oks.Load() != 2 {
		t.Fatalf("busy=%d ok=%d, want 4 refused / 2 admitted", busy.Load(), oks.Load())
	}
	snap, err := loadtest.WaitIdle(d.url, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.RejectedBusy != 4 || snap.Enqueued != 2 {
		t.Fatalf("rejected_busy=%d enqueued=%d, want 4/2", snap.RejectedBusy, snap.Enqueued)
	}
	if err := loadtest.CheckAccounting(snap); err != nil {
		t.Fatal(err)
	}
}

// TestJobDeadline: a job over its deadline resolves as cancelled with a
// 504 and the partial-report cancelled marker in the body.
func TestJobDeadline(t *testing.T) {
	leakcheck.Check(t)
	runner, _ := blockingRunner(nil) // only ctx.Done can release it
	d := startDaemon(t, serve.Config{Workers: 1, JobTimeout: 100 * time.Millisecond, Runner: runner})
	resp, body := d.submit(t, tinySpec(1), "c1")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"cancelled": true`) {
		t.Fatalf("partial report missing cancelled marker: %.200s", body)
	}
	snap, err := loadtest.WaitIdle(d.url, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cancelled != 1 {
		t.Fatalf("cancelled=%d, want 1", snap.Cancelled)
	}
	if err := loadtest.CheckAccounting(snap); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectCancelsOrphanJob: when every client of a job goes away
// mid-flight, the job's context is cancelled — the daemon stops
// simulating for an audience of zero and accounts the job as cancelled.
func TestDisconnectCancelsOrphanJob(t *testing.T) {
	leakcheck.Check(t)
	runner, calls := blockingRunner(nil)
	d := startDaemon(t, serve.Config{Workers: 1, JobTimeout: 30 * time.Second, Runner: runner})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/campaigns", strings.NewReader(tinySpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	// Wait for the job to start, then vanish.
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected request returned a response")
	}
	snap, err := loadtest.WaitIdle(d.url, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cancelled != 1 {
		t.Fatalf("cancelled=%d, want 1 (orphaned job not cancelled)", snap.Cancelled)
	}
	if err := loadtest.CheckAccounting(snap); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrainUnderLoad: Shutdown under live load stops admission
// (503 on new submissions, 503 healthz), completes or cancels everything
// in flight within the budget, resolves every waiter, and balances the
// books. With workers parked, the budget must expire and cancellation
// must finish the queued jobs.
func TestGracefulDrainUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	runner, _ := blockingRunner(nil) // jobs finish only by cancellation
	d := startDaemon(t, serve.Config{
		QueueCap: 16, Workers: 2, Rate: -1,
		EnqueueTimeout: 100 * time.Millisecond,
		JobTimeout:     time.Minute,
		Runner:         runner,
	})
	var wg sync.WaitGroup
	results := make([]int, 12)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := d.submit(t, tinySpec(i), fmt.Sprintf("c%d", i))
			results[i] = resp.StatusCode
		}(i)
	}
	// Let the load reach the workers and the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := d.srv.Metrics().Snapshot()
		if s.Inflight == 2 && s.QueueDepth >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load never built up: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv := d.srv
	d.srv = nil // teardown must not Shutdown twice
	drainCtx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(drainCtx) }()

	// While draining: no new admissions, and healthz says so.
	time.Sleep(50 * time.Millisecond)
	if resp, _ := d.submit(t, tinySpec(999), "late"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain got %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(d.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", hresp.StatusCode)
	}

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Shutdown returned nil though the budget had to expire")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hung past its budget")
	}
	wg.Wait() // every in-flight client got a response
	for i, code := range results {
		if code != http.StatusGatewayTimeout && code != http.StatusServiceUnavailable {
			t.Fatalf("client %d got %d during drain, want 504 (cancelled) or 503", i, code)
		}
	}
	snap := srv.Metrics().Snapshot()
	if err := loadtest.CheckAccounting(snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cancelled == 0 {
		t.Fatal("drain cancelled nothing though all jobs were parked")
	}
}

// TestLoad2000 is the acceptance load test: 2000 concurrent submissions
// (mixed with poison specs, oversized grids, and mid-flight disconnects)
// against a queue bounded at 64, executed by the real campaign runner.
// Afterwards: books balanced exactly, identical specs deduplicated
// (single-flight + cache observable), memory growth bounded, and — via
// leakcheck — zero goroutine leaks.
func TestLoad2000(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	leakcheck.Check(t)
	var runnerCalls atomic.Int64
	counting := func(ctx context.Context, spec campaign.Spec, opt campaign.Options) (*campaign.Report, error) {
		runnerCalls.Add(1)
		// Hold the flight open briefly: on a fast host a tiny campaign can
		// finish before any duplicate submission arrives, which would make
		// single-flight sharing unobservable (everything lands in the cache
		// instead) and the assertion below flaky.
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
		}
		return campaign.RunContext(ctx, spec, opt)
	}
	d := startDaemon(t, serve.Config{
		QueueCap: 64, Workers: 4, Rate: -1,
		EnqueueTimeout: 200 * time.Millisecond,
		JobTimeout:     30 * time.Second,
		MaxRuns:        64, MaxRanks: 8,
		Runner: counting,
	})

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	const requests = 2000
	const unique = 48
	res, err := loadtest.Run(loadtest.Config{
		Target:          d.url,
		Requests:        requests,
		Concurrency:     128,
		UniqueSpecs:     unique,
		PoisonEvery:     19,
		OversizeEvery:   31,
		DisconnectEvery: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Summary())
	if res.Sent != requests {
		t.Fatalf("sent %d, want %d", res.Sent, requests)
	}
	if res.TransportErrors > 0 {
		t.Fatalf("%d transport errors against a local daemon", res.TransportErrors)
	}
	if res.OK() == 0 {
		t.Fatal("no submission succeeded")
	}

	snap, err := loadtest.WaitIdle(d.url, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadtest.CheckAccounting(snap); err != nil {
		t.Fatal(err)
	}
	// Deduplication must be observable: far fewer executions than valid
	// submissions, with the gap explained by cache hits + shared flights.
	if snap.CacheHits == 0 || snap.SingleflightShared == 0 {
		t.Fatalf("dedup invisible: cache_hits=%d shared=%d", snap.CacheHits, snap.SingleflightShared)
	}
	valid := uint64(res.OK())
	if got := uint64(runnerCalls.Load()); got >= valid {
		t.Fatalf("runner executed %d times for %d successful submissions — dedup not working", got, valid)
	}
	// Poison/oversize traffic must be fully shed at the door.
	if snap.RejectedInvalid == 0 || snap.RejectedTooLarge == 0 {
		t.Fatalf("hostile traffic not shed: invalid=%d too_large=%d", snap.RejectedInvalid, snap.RejectedTooLarge)
	}

	// Bounded memory: a shedding daemon must not have buffered 2000 jobs.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 256<<20 {
		t.Fatalf("heap grew by %d MiB across the load test", growth>>20)
	}
	t.Logf("heap growth %.1f MiB, runner executions %d (%.1f%% of %d valid submissions)",
		float64(growth)/(1<<20), runnerCalls.Load(),
		100*float64(runnerCalls.Load())/float64(valid), valid)
}

// TestSlowLorisShed: connections that dribble their body are cut off by
// the server's read timeout instead of pinning handler goroutines; the
// daemon stays responsive throughout.
func TestSlowLorisShed(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-loris test sleeps past read timeouts; skipped in -short mode")
	}
	leakcheck.Check(t)
	d := startDaemon(t, serve.Config{Workers: 2, Rate: -1})
	res, err := loadtest.Run(loadtest.Config{
		Target:         d.url,
		Requests:       40,
		Concurrency:    8,
		UniqueSpecs:    4,
		SlowLorisEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SlowLoris == 0 {
		t.Fatal("no slow-loris connections attempted")
	}
	if res.OK() == 0 {
		t.Fatal("normal traffic starved during slow-loris attack")
	}
	snap, err := loadtest.WaitIdle(d.url, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadtest.CheckAccounting(snap); err != nil {
		t.Fatal(err)
	}
}
