package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"pioeval/internal/campaign"
	"pioeval/internal/reduce"
)

// TestGoldenValidate pins the full stdout of the invariant-checked
// built-in scenario on every tier, a compressed stack, and a faulted
// resilient run, byte for byte. The goldens were recorded from the
// command before it moved behind run; they are not regenerated.
func TestGoldenValidate(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"validate_golden.txt", []string{"-validate"}},
		{"validate_bb_lz_golden.txt", []string{"-validate", "-tier", "bb", "-compress", "lz"}},
		{"validate_nodelocal_golden.txt", []string{"-validate", "-tier", "nodelocal"}},
		{"validate_faults_golden.txt", []string{"-validate", "-faults", "ostcrash:1@1ms; ostrecover:1@20ms", "-resilient"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.golden)
			if err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			if err := run(c.args, &out, &errb); err != nil {
				t.Fatalf("run %q: %v\nstderr:\n%s", c.args, err, errb.String())
			}
			if out.String() != string(want) {
				t.Errorf("run %q output differs from %s:\n got:\n%s\nwant:\n%s", c.args, c.golden, out.String(), want)
			}
		})
	}
}

// TestSimfsScaleGolden pins the -ranks scale run, single-engine,
// invariant-checked and sharded, byte for byte except for the host-cost
// line (wall time, event rate and heap depend on the machine). The
// sharded run names its worker count so the "sharded:" line does not
// depend on the host's cores.
func TestSimfsScaleGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"scale_golden.txt", []string{"-ranks", "2000"}},
		{"scale_validate_golden.txt", []string{"-ranks", "2000", "-validate"}},
		{"scale_shards4_golden.txt", []string{"-ranks", "2000", "-shards", "4", "-shard-workers", "2"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.golden)
			if err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			if err := run(c.args, &out, &errb); err != nil {
				t.Fatalf("run %q: %v\nstderr:\n%s", c.args, err, errb.String())
			}
			var got strings.Builder
			for _, line := range strings.SplitAfter(out.String(), "\n") {
				if !strings.HasPrefix(line, "  host:") {
					got.WriteString(line)
				}
			}
			if got.String() != string(want) {
				t.Errorf("run %q output differs from %s:\n got:\n%s\nwant:\n%s", c.args, c.golden, got.String(), want)
			}
		})
	}
}

// TestRejections checks that invalid invocations fail with an error
// naming the problem, and in particular that the -ranks scale run names
// every flag and argument it would otherwise silently ignore.
func TestRejections(t *testing.T) {
	cases := []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-ranks", "2000", "-tier", "bb", "-compress", "lz", "-faults", "ostcrash:1@1ms"},
			[]string{"-tier", "-compress", "-faults"}},
		{[]string{"-ranks", "2000", "-resilient", "-sample"}, []string{"-resilient", "-sample"}},
		{[]string{"-ranks", "2000", "-tier", "direct"}, []string{"-tier"}},
		{[]string{"-ranks", "2000", "script.iol"}, []string{"a script argument"}},
		{[]string{"-ranks", "100", "-shards", "1", "-workers-sweep", "2"}, []string{"-workers-sweep needs -shards > 1"}},
		{[]string{}, []string{"usage"}},
		{[]string{"-validate", "-tier", "warp"}, []string{`unknown tier "warp"`}},
		{[]string{"-validate", "-compress", "brotli"}, []string{`unknown compressor "brotli"`}},
		{[]string{"-validate", "-faults", "explode@1s"}, []string{"explode"}},
		{[]string{"does-not-exist.iol"}, []string{"does-not-exist.iol"}},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		err := run(c.args, &out, &errb)
		if err == nil {
			t.Errorf("run %q succeeded, want an error", c.args)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("run %q error %q does not mention %q", c.args, err, w)
			}
		}
	}
}

// TestStackAgreesWithParseStack: -tier/-compress accept and reject
// exactly what campaign.ParseStack does, with the same error text.
func TestStackAgreesWithParseStack(t *testing.T) {
	for _, tier := range []string{"", "direct", "bb", "nodelocal", "warp"} {
		for _, comp := range append([]string{"", "none", "brotli"}, reduce.Names()...) {
			_, want := campaign.ParseStack(tier, comp)
			var out, errb bytes.Buffer
			got := run([]string{"-validate", "-tier", tier, "-compress", comp}, &out, &errb)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Errorf("tier %q compress %q: run error %v, ParseStack error %v", tier, comp, got, want)
			}
		}
	}
}
