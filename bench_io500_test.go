package pioeval_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"pioeval/internal/io500"
	"pioeval/internal/surveystats"
)

// surveyGrid is the submission-corpus sweep recorded in BENCH_io500.json:
// every device model crossed with every storage tier at three rank
// counts — 27 simulated "sites", each running the full composite suite.
// Regenerate the record with
//
//	go run ./cmd/io500 -survey -json > BENCH_io500.json
func surveyGrid() surveystats.Grid {
	return surveystats.Grid{
		Devices: []string{"hdd", "ssd", "nvme"},
		Tiers:   []string{"direct", "bb", "nodelocal"},
		Ranks:   []int{2, 4, 8},
		// The suite sizing cmd/io500 passes at its flag defaults.
		Base: io500.Config{
			Ranks: 4, Device: "hdd", Tier: "direct", StripeCount: 4, StripeSize: 1 << 20, Seed: 1,
			EasyBlock: 16 << 20, EasyXfer: 1 << 20, HardXfer: 47008, HardOps: 64,
			EasyFiles: 64, HardFiles: 32, HardFileBytes: 3901,
		},
		Seed: 1,
	}
}

// TestSurveyRecordMatchesGrid keeps BENCH_io500.json in lockstep with
// surveyGrid (the cmd/io500 -survey defaults): if the recorded corpus
// was built from a different grid or has drifted from what a fresh run
// produces, the JSON no longer describes the benchmark.
func TestSurveyRecordMatchesGrid(t *testing.T) {
	src, err := os.ReadFile("BENCH_io500.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec surveystats.Report
	if err := json.Unmarshal(src, &rec); err != nil {
		t.Fatal(err)
	}
	g := surveyGrid()
	want := g.Points()
	if len(rec.Corpus.Submissions) != len(want) {
		t.Fatalf("recorded corpus has %d submissions, grid expands to %d", len(rec.Corpus.Submissions), len(want))
	}
	for i, s := range rec.Corpus.Submissions {
		w := want[i]
		if s.Config.Device != w.Device || s.Config.Tier != w.Tier || s.Config.Ranks != w.Ranks || s.Config.Seed != w.Seed {
			t.Errorf("submission %d is %s/%s/r%d seed %d, grid says %s/%s/r%d seed %d",
				i, s.Config.Device, s.Config.Tier, s.Config.Ranks, s.Config.Seed,
				w.Device, w.Tier, w.Ranks, w.Seed)
		}
		if s.Score <= 0 {
			t.Errorf("submission %d recorded score %.6f, want > 0", i, s.Score)
		}
	}
	if rec.Analysis == nil || rec.Analysis.N != len(want) {
		t.Fatal("recorded analysis missing or wrong size")
	}
	// The record must also reproduce byte for byte from the grid.
	corpus, err := surveystats.BuildCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	a, err := surveystats.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := (&surveystats.Report{Corpus: corpus, Analysis: a}).WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), src) {
		t.Error("re-running surveyGrid does not reproduce BENCH_io500.json byte for byte")
	}
}

// BenchmarkIO500Suite runs one full-size composite suite (default
// sizing, 4 ranks, hdd direct) end to end and reports the headline
// scores — the suite-level cost and score trajectory point behind
// BENCH_io500.json.
func BenchmarkIO500Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := io500.Run(io500.Config{Ranks: 4, Seed: 1, Check: true})
		if err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start)
		if len(res.Violations) > 0 {
			b.Fatalf("invariant violations: %v", res.Violations)
		}
		if res.Score <= 0 {
			b.Fatalf("suite score %.6f, want > 0", res.Score)
		}
		b.ReportMetric(float64(len(res.Phases))/wall.Seconds(), "phases/s")
		b.ReportMetric(res.BWScore, "bw_GiBps")
		b.ReportMetric(res.MDScore, "md_kIOPS")
		b.ReportMetric(res.Score, "score")
	}
}

// BenchmarkIO500Survey runs the full 27-point corpus build + analysis —
// the exact work behind BENCH_io500.json — and reports corpus-level
// throughput.
func BenchmarkIO500Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		g := surveyGrid()
		corpus, err := surveystats.BuildCorpus(g)
		if err != nil {
			b.Fatal(err)
		}
		a, err := surveystats.Analyze(corpus)
		if err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start)
		b.ReportMetric(float64(a.N)/wall.Seconds(), "submissions/s")
		b.ReportMetric(a.Metrics[len(a.Metrics)-1].Median, "median_score")
	}
}
