// Package surveystats builds and analyzes a simulated IO500 submission
// corpus. The IO500 "Treasure Trove" papers mine the public submission
// list for cross-site structure — score distributions, metric
// correlations, and which phase holds each submission back. This package
// reproduces that methodology over a synthetic corpus: it sweeps the
// composite suite across a device × tier × rank-count grid (one
// simulated "site" per point, seeded independently) and then runs the
// same three analyses over the resulting score table.
package surveystats

import (
	"fmt"
	"sort"

	"pioeval/internal/campaign"
	"pioeval/internal/io500"
	"pioeval/internal/stats"
)

// Grid describes the survey sweep: the cross product of devices, tiers,
// and rank counts, each point running one full composite suite.
type Grid struct {
	Devices []string `json:"devices"`
	Tiers   []string `json:"tiers"`
	Ranks   []int    `json:"ranks"`
	// Compress sweeps the data-reduction stage ("" or "none" =
	// uncompressed). Empty means the single uncompressed point, which
	// leaves the grid's point list — and every point's derived seed —
	// identical to a pre-axis grid, so recorded corpora stay valid.
	Compress []string `json:"compress,omitempty"`
	// Base supplies the suite sizing (block/xfer/file counts); its
	// Ranks/Device/Tier/Seed fields are overwritten per grid point.
	Base io500.Config `json:"base"`
	// Seed is the survey master seed; point i runs with
	// campaign.RunSeed(Seed, i) so each simulated site is independent
	// but the whole corpus is reproducible.
	Seed int64 `json:"seed"`
	// Workers bounds corpus-build parallelism (0 = GOMAXPROCS). Each
	// point's suite runs its steps serially so the outer pool is the
	// only parallelism; results are indexed, so output is byte-identical
	// at any worker count.
	Workers int `json:"-"`
}

// Points expands the grid cross product in deterministic order:
// device-major, then tier, then ranks, then compressor.
func (g Grid) Points() []io500.Config {
	comps := g.Compress
	if len(comps) == 0 {
		comps = []string{""}
	}
	var out []io500.Config
	i := 0
	for _, dev := range g.Devices {
		for _, tier := range g.Tiers {
			for _, r := range g.Ranks {
				for _, comp := range comps {
					cfg := g.Base
					cfg.Device = dev
					cfg.Tier = tier
					cfg.Ranks = r
					cfg.Compress = comp
					cfg.Seed = campaign.RunSeed(g.Seed, i)
					cfg.Workers = 1
					out = append(out, cfg)
					i++
				}
			}
		}
	}
	return out
}

// Validate rejects empty grid axes and invalid base sizing.
func (g Grid) Validate() error {
	if len(g.Devices) == 0 || len(g.Tiers) == 0 || len(g.Ranks) == 0 {
		return fmt.Errorf("surveystats: grid needs at least one device, tier, and rank count")
	}
	pts := g.Points()
	for _, p := range pts {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("surveystats: grid point invalid: %w", err)
		}
	}
	return nil
}

// Corpus is the simulated submission list: one suite result per grid
// point, in grid order.
type Corpus struct {
	Grid        Grid            `json:"grid"`
	Submissions []*io500.Result `json:"submissions"`
}

// BuildCorpus runs the composite suite at every grid point. Point
// results land at their grid index, so the corpus is identical at any
// worker count.
func BuildCorpus(g Grid) (*Corpus, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	pts := g.Points()
	subs := make([]*io500.Result, len(pts))
	errs := make([]error, len(pts))
	pr := campaign.Pool(len(pts), campaign.Options{Workers: g.Workers}, func(i int) {
		subs[i], errs[i] = io500.Run(pts[i])
	})
	for _, p := range pr.Panicked {
		return nil, fmt.Errorf("surveystats: point %d panicked: %s", p.Index, p.Value)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("surveystats: point %d: %w", i, err)
		}
	}
	return &Corpus{Grid: g, Submissions: subs}, nil
}

// MetricNames lists the analyzed metrics in reporting order: the twelve
// scored phases, then the two sub-scores and the total.
func MetricNames() []string {
	out := append([]string{}, io500.PhaseOrder...)
	return append(out, "bw_score", "md_score", "score")
}

// metricValue extracts one named metric from a submission.
func metricValue(r *io500.Result, name string) float64 {
	switch name {
	case "bw_score":
		return r.BWScore
	case "md_score":
		return r.MDScore
	case "score":
		return r.Score
	}
	return r.Phase(name).Value
}

// MetricSummary pairs a metric name with its corpus-wide distribution.
type MetricSummary struct {
	Metric string `json:"metric"`
	stats.Summary
}

// Bottleneck is the per-submission attribution verdict: the phase whose
// lift to the corpus median would raise this submission's total score
// the most.
type Bottleneck struct {
	Index    int     `json:"index"`
	Device   string  `json:"device"`
	Tier     string  `json:"tier"`
	Compress string  `json:"compress,omitempty"`
	Ranks    int     `json:"ranks"`
	Score    float64 `json:"score"`
	// Phase is the attributed bottleneck ("" when the submission is at
	// or above the corpus median in every phase).
	Phase string `json:"phase"`
	// Lifted is the total score after raising Phase to its corpus
	// median; Gain = Lifted - Score.
	Lifted float64 `json:"lifted_score"`
	Gain   float64 `json:"gain"`
}

// Analysis is the Treasure-Trove-style corpus report.
type Analysis struct {
	N int `json:"n"`
	// Metrics holds each metric's distribution (percentiles, CV) over
	// the corpus, in MetricNames order.
	Metrics []MetricSummary `json:"metrics"`
	// Pearson and Spearman are correlation matrices over MetricNames;
	// entry [i][j] correlates metric i with metric j across submissions.
	Pearson  [][]float64 `json:"pearson"`
	Spearman [][]float64 `json:"spearman"`
	// Bottlenecks attributes each submission's limiting phase.
	Bottlenecks []Bottleneck `json:"bottlenecks"`
	// BottleneckCounts tallies attributed phases, descending by count
	// (ties broken by name) — the corpus-wide "what holds sites back".
	BottleneckCounts []PhaseCount `json:"bottleneck_counts"`
}

// PhaseCount is one row of the bottleneck tally.
type PhaseCount struct {
	Phase string `json:"phase"`
	Count int    `json:"count"`
}

// Analyze computes score distributions, metric correlation matrices,
// and per-submission bottleneck attribution over the corpus.
func Analyze(c *Corpus) (*Analysis, error) {
	if len(c.Submissions) == 0 {
		return nil, fmt.Errorf("surveystats: empty corpus")
	}
	names := MetricNames()
	cols := make(map[string][]float64, len(names))
	for _, n := range names {
		col := make([]float64, len(c.Submissions))
		for i, s := range c.Submissions {
			col[i] = metricValue(s, n)
		}
		cols[n] = col
	}

	a := &Analysis{N: len(c.Submissions)}
	for _, n := range names {
		a.Metrics = append(a.Metrics, MetricSummary{Metric: n, Summary: stats.Summarize(cols[n])})
	}

	a.Pearson = make([][]float64, len(names))
	a.Spearman = make([][]float64, len(names))
	for i, ni := range names {
		a.Pearson[i] = make([]float64, len(names))
		a.Spearman[i] = make([]float64, len(names))
		for j, nj := range names {
			// Degenerate columns (zero variance) correlate as 0 by
			// convention rather than failing the whole analysis.
			if r, err := stats.Pearson(cols[ni], cols[nj]); err == nil {
				a.Pearson[i][j] = r
			}
			if r, err := stats.Spearman(cols[ni], cols[nj]); err == nil {
				a.Spearman[i][j] = r
			}
		}
	}

	medians := make(map[string]float64, len(io500.PhaseOrder))
	for _, n := range io500.PhaseOrder {
		medians[n] = stats.Quantile(cols[n], 0.5)
	}
	counts := map[string]int{}
	for i, s := range c.Submissions {
		b := attribute(s, medians)
		b.Index = i
		b.Device = s.Config.Device
		b.Tier = s.Config.Tier
		b.Compress = s.Config.Compress
		b.Ranks = s.Config.Ranks
		a.Bottlenecks = append(a.Bottlenecks, b)
		if b.Phase != "" {
			counts[b.Phase]++
		}
	}
	for ph, n := range counts {
		a.BottleneckCounts = append(a.BottleneckCounts, PhaseCount{Phase: ph, Count: n})
	}
	sort.Slice(a.BottleneckCounts, func(i, j int) bool {
		ci, cj := a.BottleneckCounts[i], a.BottleneckCounts[j]
		if ci.Count != cj.Count {
			return ci.Count > cj.Count
		}
		return ci.Phase < cj.Phase
	})
	return a, nil
}

// attribute finds the phase whose lift to the corpus median raises the
// submission's total score the most: a counterfactual replay of the
// IO500 scoring rule, not a heuristic. Submissions already at or above
// the median everywhere attribute to no phase.
func attribute(s *io500.Result, medians map[string]float64) Bottleneck {
	base := s.Values()
	b := Bottleneck{Score: s.Score, Lifted: s.Score}
	for _, ph := range io500.PhaseOrder {
		med := medians[ph]
		if base[ph] >= med {
			continue
		}
		lifted := make(map[string]float64, len(base))
		for k, v := range base {
			lifted[k] = v
		}
		lifted[ph] = med
		_, _, total := io500.Score(lifted)
		if gain := total - s.Score; gain > b.Gain {
			b.Phase, b.Lifted, b.Gain = ph, total, gain
		}
	}
	return b
}
