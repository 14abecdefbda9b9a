package pioeval_test

import (
	"bytes"
	"os"
	"testing"
	"time"

	"pioeval/internal/campaign"
)

// compressSpec is the data-reduction crossover sweep recorded in
// BENCH_compress.json (testdata/compress.campaign is the cmd/campaign
// form of the same grid): every shipped compressor crossed with a slow
// and a fast OST device on the direct tier.
func compressSpec() campaign.Spec {
	return campaign.Spec{
		Name:          "compress-sweep",
		Workload:      campaign.WorkloadCheckpoint,
		Seed:          99,
		Reps:          3,
		Steps:         6,
		Ranks:         []int{4},
		Devices:       []string{"hdd", "nvme"},
		StripeCounts:  []int{4},
		BlockSizes:    []int64{4 << 20},
		TransferSizes: []int64{1 << 20},
		Compress:      []string{"none", "lz", "deflate", "zfp", "sz"},
	}
}

// TestCompressSpecFileMatchesBench keeps testdata/compress.campaign (the
// reproduction recipe printed in BENCH_compress.json's runbook) in
// lockstep with compressSpec.
func TestCompressSpecFileMatchesBench(t *testing.T) {
	src, err := os.ReadFile("testdata/compress.campaign")
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
	for _, pt := range compressSpec().Expand() {
		b.WriteString(pt.Label() + "\n")
	}
	if a.String() != b.String() {
		t.Errorf("testdata/compress.campaign expands differently from compressSpec():\nfile:\n%sbench:\n%s", a.String(), b.String())
	}
	if parsed.Seed != compressSpec().Seed || parsed.Reps != compressSpec().Reps || parsed.Steps != compressSpec().Steps {
		t.Errorf("scalar drift: file seed/reps/steps %d/%d/%d, bench %d/%d/%d",
			parsed.Seed, parsed.Reps, parsed.Steps, compressSpec().Seed, compressSpec().Reps, compressSpec().Steps)
	}
	checkRecordedReport(t, "BENCH_compress.json", parsed)
}

// crossoverTable runs the sweep and folds it into
// device -> compressor -> effective checkpoint MB/s.
func crossoverTable(tb testing.TB) (*campaign.Report, map[string]map[string]float64) {
	tb.Helper()
	rep, err := campaign.Run(compressSpec(), campaign.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	eff := map[string]map[string]float64{}
	for _, ps := range rep.Points {
		p := ps.Point
		comp := p.Compress
		if comp == "" {
			comp = "none"
		}
		if eff[p.Device] == nil {
			eff[p.Device] = map[string]float64{}
		}
		eff[p.Device][comp] = ps.Metrics["effective_MBps"].Mean
	}
	return rep, eff
}

// TestCompressCrossover is the acceptance check behind BENCH_compress.json:
// the same codec must sit on opposite sides of the cost/benefit line
// depending on the device below. A cheap codec (lz) lifts effective
// checkpoint bandwidth on an HDD-backed store and loses on NVMe; a
// CPU-bound codec (deflate) loses on both.
func TestCompressCrossover(t *testing.T) {
	_, eff := crossoverTable(t)
	hdd, nvme := eff["hdd"], eff["nvme"]
	if hdd["lz"] <= hdd["none"] {
		t.Errorf("lz on hdd: %.1f MB/s does not beat uncompressed %.1f", hdd["lz"], hdd["none"])
	}
	if nvme["lz"] >= nvme["none"] {
		t.Errorf("lz on nvme: %.1f MB/s does not lose to uncompressed %.1f (no crossover)", nvme["lz"], nvme["none"])
	}
	if hdd["deflate"] >= hdd["none"] {
		t.Errorf("deflate on hdd: %.1f MB/s should be CPU-bound below uncompressed %.1f", hdd["deflate"], hdd["none"])
	}
	// Lossy codecs ride their higher ratios past lz on the slow device.
	if hdd["zfp"] <= hdd["none"] {
		t.Errorf("zfp on hdd: %.1f MB/s does not beat uncompressed %.1f", hdd["zfp"], hdd["none"])
	}
}

// BenchmarkCompressSweep runs the 10-point, 30-run crossover sweep and
// reports the headline inversion behind BENCH_compress.json: the lz
// speedup over uncompressed on hdd (>1) and on nvme (<1).
func BenchmarkCompressSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rep, eff := crossoverTable(b)
		wall := time.Since(start)
		hdd, nvme := eff["hdd"], eff["nvme"]
		if hdd["lz"] <= hdd["none"] || nvme["lz"] >= nvme["none"] {
			b.Fatalf("crossover inverted: hdd lz %.1f vs none %.1f, nvme lz %.1f vs none %.1f",
				hdd["lz"], hdd["none"], nvme["lz"], nvme["none"])
		}
		b.ReportMetric(float64(len(rep.Points)), "points")
		b.ReportMetric(float64(len(rep.Runs))/wall.Seconds(), "runs/s")
		b.ReportMetric(hdd["none"], "hdd_raw_MBps")
		b.ReportMetric(hdd["lz"], "hdd_lz_MBps")
		b.ReportMetric(hdd["lz"]/hdd["none"], "hdd_lz_speedup")
		b.ReportMetric(nvme["none"], "nvme_raw_MBps")
		b.ReportMetric(nvme["lz"], "nvme_lz_MBps")
		b.ReportMetric(nvme["lz"]/nvme["none"], "nvme_lz_speedup")
	}
}
