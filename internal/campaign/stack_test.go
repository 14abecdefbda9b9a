package campaign

import (
	"testing"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
)

// stackCase is one row of the Stack table: a tier/compressor pair and
// the canonical stack or the error it must produce.
type stackCase struct {
	tier, compress string
	want           Stack
	err            string
}

// stackCases is the Stack table: every spelling of the defaults, every
// tier, every reduce preset, and unknown names.
func stackCases() []stackCase {
	rows := []stackCase{
		{"", "", Stack{}, ""},
		{"direct", "", Stack{}, ""},
		{"", "none", Stack{}, ""},
		{"direct", "none", Stack{}, ""},
		{"bb", "", Stack{Tier: "bb"}, ""},
		{"nodelocal", "none", Stack{Tier: "nodelocal"}, ""},
		{"warp", "", Stack{}, `stack: unknown tier "warp" (want one of [direct bb nodelocal])`},
		{"Direct", "", Stack{}, `stack: unknown tier "Direct" (want one of [direct bb nodelocal])`},
		{"none", "", Stack{}, `stack: unknown tier "none" (want one of [direct bb nodelocal])`},
		{"", "brotli", Stack{}, `stack: unknown compressor "brotli" (want none or one of [deflate lz sz zfp])`},
		{"", "direct", Stack{}, `stack: unknown compressor "direct" (want none or one of [deflate lz sz zfp])`},
		{"warp", "brotli", Stack{}, `stack: unknown tier "warp" (want one of [direct bb nodelocal])`},
	}
	for _, name := range reduce.Names() {
		rows = append(rows,
			stackCase{"", name, Stack{Compress: name}, ""},
			stackCase{"bb", name, Stack{Tier: "bb", Compress: name}, ""})
	}
	return rows
}

func TestParseStack(t *testing.T) {
	for _, c := range stackCases() {
		got, err := ParseStack(c.tier, c.compress)
		switch {
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("ParseStack(%q, %q) error %v, want %q", c.tier, c.compress, err, c.err)
		case c.err == "" && err != nil:
			t.Errorf("ParseStack(%q, %q) error %v", c.tier, c.compress, err)
		case c.err == "" && got != c.want:
			t.Errorf("ParseStack(%q, %q) = %+v, want %+v", c.tier, c.compress, got, c.want)
		}
	}
}

// TestStackBuild: Build yields the named tier with the compressor pushed
// on top, and fails with ParseStack's error on a bad stack.
func TestStackBuild(t *testing.T) {
	for _, c := range stackCases() {
		e := des.NewEngine(1)
		pr, err := Stack{Tier: c.tier, Compress: c.compress}.Build(e, pfs.New(e, pfs.DefaultConfig()))
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("Build(%q, %q) error %v, want %q", c.tier, c.compress, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Build(%q, %q): %v", c.tier, c.compress, err)
		}
		wantTier := c.want.Tier
		if wantTier == "" {
			wantTier = "direct"
		}
		if pr.Tier() != wantTier {
			t.Errorf("Build(%q, %q) tier %q, want %q", c.tier, c.compress, pr.Tier(), wantTier)
		}
		var names []string
		for _, st := range pr.Stages() {
			names = append(names, st.Name())
		}
		if (c.want.Compress == "" && len(names) != 0) || (c.want.Compress != "" && (len(names) != 1 || names[0] != c.want.Compress)) {
			t.Errorf("Build(%q, %q) stages %v, want [%s]", c.tier, c.compress, names, c.want.Compress)
		}
	}
}

// TestValidateAgreesWithParseStack: the tier and compress axes accept
// and reject exactly what ParseStack does, with the same error text.
func TestValidateAgreesWithParseStack(t *testing.T) {
	for _, c := range stackCases() {
		_, want := ParseStack(c.tier, c.compress)
		got := Spec{Tiers: []string{c.tier}, Compress: []string{c.compress}}.Validate()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("tier %q compress %q: Validate error %v, ParseStack error %v", c.tier, c.compress, got, want)
		}
	}
}

// TestExpandLexicographic: with two values on every axis, Expand yields
// 2^axes points whose IDs are their indices and whose axis choices count
// in binary — lexicographic order, the last axis (faults) fastest.
func TestExpandLexicographic(t *testing.T) {
	s := Spec{
		Ranks:         []int{2, 4},
		Devices:       []string{"hdd", "ssd"},
		StripeCounts:  []int{1, 4},
		StripeSizes:   []int64{1 << 20, 4 << 20},
		BlockSizes:    []int64{1 << 20, 4 << 20},
		TransferSizes: []int64{256 << 10, 1 << 20},
		Patterns:      []string{"sequential", "random"},
		Collective:    []bool{false, true},
		Tiers:         []string{"", "bb"},
		Compress:      []string{"", "lz"},
		Faults:        []string{"", "ostcrash:1@5ms"},
	}
	second := func(p Point) []bool {
		return []bool{
			p.Ranks == 4, p.Device == "ssd", p.StripeCount == 4, p.StripeSize == 4<<20,
			p.BlockSize == 4<<20, p.TransferSize == 1<<20, p.Pattern == "random", p.Collective,
			p.Tier == "bb", p.Compress == "lz", p.Faults != "",
		}
	}
	pts := s.Expand()
	const axes = 11
	if len(pts) != 1<<axes {
		t.Fatalf("expanded %d points, want %d", len(pts), 1<<axes)
	}
	for i, p := range pts {
		if p.ID != i {
			t.Fatalf("point %d has ID %d", i, p.ID)
		}
		for k, b := range second(p) {
			if want := i>>(axes-1-k)&1 == 1; b != want {
				t.Fatalf("point %d axis %d picks value %v, want %v (lexicographic, last axis fastest): %+v", i, k, b, want, p)
			}
		}
	}
}

// TestEveryStorageTierBuilds: the Stack table is storage's own tier list,
// so every tier storage names passes ParseStack and builds a provider.
func TestEveryStorageTierBuilds(t *testing.T) {
	for _, tier := range storage.Tiers() {
		s, err := ParseStack(tier, "")
		if err != nil {
			t.Fatalf("ParseStack(%q): %v", tier, err)
		}
		e := des.NewEngine(1)
		if _, err := s.Build(e, pfs.New(e, pfs.DefaultConfig())); err != nil {
			t.Fatalf("Build(%q): %v", tier, err)
		}
	}
}
