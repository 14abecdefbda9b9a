package pioeval_test

import (
	"bytes"
	"os"
	"testing"
	"time"

	"pioeval/internal/campaign"
)

// tierSpec is the direct-vs-tiered checkpoint sweep recorded in
// BENCH_tier.json (testdata/tiers.campaign is the cmd/campaign form of
// the same grid): the three storage tiers crossed with a slow and a fast
// OST device at two rank counts, three repetitions each.
func tierSpec() campaign.Spec {
	return campaign.Spec{
		Name:          "tier-sweep",
		Workload:      campaign.WorkloadCheckpoint,
		Seed:          77,
		Reps:          3,
		Steps:         6,
		Ranks:         []int{4, 8},
		Devices:       []string{"hdd", "nvme"},
		StripeCounts:  []int{4},
		BlockSizes:    []int64{4 << 20},
		TransferSizes: []int64{1 << 20},
		Tiers:         []string{"direct", "bb", "nodelocal"},
	}
}

// TestTierSpecFileMatchesBench keeps testdata/tiers.campaign (the
// reproduction recipe printed in BENCH_tier.json's runbook) in lockstep
// with tierSpec: if either drifts, the recorded JSON no longer describes
// what the benchmark measures.
func TestTierSpecFileMatchesBench(t *testing.T) {
	src, err := os.ReadFile("testdata/tiers.campaign")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := campaign.ParseSpec(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	for _, pt := range parsed.Expand() {
		a.WriteString(pt.Label() + "\n")
	}
	for _, pt := range tierSpec().Expand() {
		b.WriteString(pt.Label() + "\n")
	}
	if a.String() != b.String() {
		t.Errorf("testdata/tiers.campaign expands differently from tierSpec():\nfile:\n%sbench:\n%s", a.String(), b.String())
	}
	if parsed.Seed != tierSpec().Seed || parsed.Reps != tierSpec().Reps || parsed.Steps != tierSpec().Steps {
		t.Errorf("scalar drift: file seed/reps/steps %d/%d/%d, bench %d/%d/%d",
			parsed.Seed, parsed.Reps, parsed.Steps, tierSpec().Seed, tierSpec().Reps, tierSpec().Steps)
	}
	checkRecordedReport(t, "BENCH_tier.json", parsed)
}

// checkRecordedReport re-runs spec in-process and requires its JSON
// report to equal the committed record byte for byte, so a refactor that
// shifts any recorded number fails here rather than silently staling the
// record.
func checkRecordedReport(t *testing.T, record string, spec campaign.Spec) {
	t.Helper()
	want, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(spec, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("re-running the spec does not reproduce %s byte for byte", record)
	}
}

// TestTierCampaignDeterminismAcrossWorkers extends the campaign runner's
// determinism guarantee across the storage-tier axis: burst-buffer drain
// workers and node-local scratch devices live inside each run's private
// engine, so aggregating the tier sweep at workers=1 and workers=8 must
// produce byte-identical JSON.
func TestTierCampaignDeterminismAcrossWorkers(t *testing.T) {
	var out [2]bytes.Buffer
	for i, workers := range []int{1, 8} {
		rep, err := campaign.Run(tierSpec(), campaign.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("workers=1 and workers=8 produced different aggregated JSON for the tier sweep")
	}
}

// BenchmarkTierSweep runs the 12-point, 36-run tier sweep and reports the
// headline comparison behind BENCH_tier.json: effective checkpoint
// bandwidth through the direct, burst-buffer, and node-local tiers on an
// HDD-backed cluster at 4 ranks. The write-back buffer absorbs dumps at
// NVMe speed and drains behind compute, so its perceived bandwidth must
// beat the direct path on a slow backing store; if it ever fails to, the
// tiering seam has stopped doing its job.
func BenchmarkTierSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rep, err := campaign.Run(tierSpec(), campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start)
		tiers := map[string]float64{}
		var bbPeak, bbStalls float64
		for _, ps := range rep.Points {
			p := ps.Point
			if p.Ranks != 4 || p.Device != "hdd" {
				continue
			}
			name := p.Tier
			if name == "" {
				name = "direct"
			}
			tiers[name] = ps.Metrics["effective_MBps"].Mean
			if p.Tier == "bb" {
				bbPeak = ps.Metrics["bb_peak_used_MB"].Mean
				bbStalls = ps.Metrics["bb_stalls"].Mean
			}
		}
		direct, bb := tiers["direct"], tiers["bb"]
		if direct <= 0 || bb <= direct {
			b.Fatalf("burst-buffer tier does not beat direct on hdd: direct %g MB/s, bb %g MB/s", direct, bb)
		}
		b.ReportMetric(float64(len(rep.Points)), "points")
		b.ReportMetric(float64(len(rep.Runs))/wall.Seconds(), "runs/s")
		b.ReportMetric(direct, "direct_MBps")
		b.ReportMetric(bb, "bb_MBps")
		b.ReportMetric(tiers["nodelocal"], "nodelocal_MBps")
		b.ReportMetric(bb/direct, "bb_speedup")
		b.ReportMetric(bbPeak, "bb_peak_used_MB")
		b.ReportMetric(bbStalls, "bb_stalls")
	}
}
