package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"pioeval/internal/campaign"
	"pioeval/internal/reduce"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden outputs")

// checkGolden compares got against the named testdata file byte for byte,
// rewriting it under -update-golden, and reports the first diverging line
// on mismatch.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output length differs: got %d lines, want %d", len(gl), len(wl))
}

// tinyArgs is a suite configuration small enough for unit tests.
var tinyArgs = []string{
	"-ranks", "2", "-seed", "42",
	"-easy-block", "1MB", "-easy-xfer", "256KB",
	"-hard-ops", "4", "-easy-files", "8", "-hard-files", "4",
}

// TestGoldenTinySuite pins the full text output of a tiny suite run —
// every [RESULT] line and the [SCORE] line — byte for byte, with the
// invariant checkers armed and the worker-count determinism self-check
// active. Regenerate deliberately with
//
//	go test ./cmd/io500 -update-golden
func TestGoldenTinySuite(t *testing.T) {
	var out, errb bytes.Buffer
	args := append([]string{"-validate", "-workers", "1", "-check-workers", "4"}, tinyArgs...)
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(out.String(), "validation: all invariants held") {
		t.Errorf("missing validation line:\n%s", out.String())
	}
	checkGolden(t, "testdata/io500_golden.txt", out.String())
}

// TestWorkerCountInvariance runs the suite at several worker counts and
// requires byte-identical JSON — the CLI-level determinism promise.
func TestWorkerCountInvariance(t *testing.T) {
	render := func(workers string) string {
		var out, errb bytes.Buffer
		args := append([]string{"-json", "-workers", workers}, tinyArgs...)
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	base := render("1")
	for _, w := range []string{"2", "8"} {
		if render(w) != base {
			t.Fatalf("suite JSON differs between workers=1 and workers=%s", w)
		}
	}
}

// TestValidateAllTiers smokes every storage tier with invariants armed;
// any violation surfaces as a non-nil error from run.
func TestValidateAllTiers(t *testing.T) {
	for _, tier := range []string{"direct", "bb", "nodelocal"} {
		var out, errb bytes.Buffer
		args := append([]string{"-validate", "-tier", tier}, tinyArgs...)
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("tier %s: %v\n%s", tier, err, out.String())
		}
	}
}

// TestSurveySmoke sweeps a 2x2x1 grid and checks the analysis and CSV
// table cover all four submissions.
func TestSurveySmoke(t *testing.T) {
	var out, errb bytes.Buffer
	args := append([]string{
		"-survey", "-devices", "hdd,ssd", "-tiers", "direct,nodelocal",
		"-rank-counts", "2", "-csv", "-",
	}, tinyArgs...)
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "4 submissions") {
		t.Errorf("survey header missing submission count:\n%s", s)
	}
	if !strings.Contains(s, "bottleneck attribution") {
		t.Errorf("survey output missing bottleneck section:\n%s", s)
	}
	if n := strings.Count(s, "\nindex,device,tier"); n != 0 {
		// header appears once at start of CSV block, counted below
		_ = n
	}
	csvRows := 0
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "0,") || strings.HasPrefix(line, "1,") ||
			strings.HasPrefix(line, "2,") || strings.HasPrefix(line, "3,") {
			csvRows++
		}
	}
	if csvRows != 4 {
		t.Errorf("CSV table has %d submission rows, want 4:\n%s", csvRows, s)
	}
}

// TestBadFlagsError covers rejection paths through run.
func TestBadFlagsError(t *testing.T) {
	cases := [][]string{
		{"-device", "tape"},
		{"-tier", "cloud"},
		{"-easy-block", "1KB", "-easy-xfer", "1MB"},
		{"-survey", "-rank-counts", "0"},
		{"-survey", "-devices", ""},
		{"-easy-block", "one-mb"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
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
			got := run(append([]string{"-workers", "1", "-tier", tier, "-compress", comp}, tinyArgs...), &out, &errb)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Errorf("tier %q compress %q: run error %v, ParseStack error %v", tier, comp, got, want)
			}
		}
	}
}
