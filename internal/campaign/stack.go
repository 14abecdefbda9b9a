package campaign

import (
	"fmt"
	"slices"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
)

// Stack names the storage end of the Fig. 2 I/O stack below POSIX: the
// tier a workload's targets are minted from and the data-reduction stage
// pushed over it. It is the one place tier and compressor names are
// canonicalized, validated and turned into a storage.Provider; the
// campaign axes, the io500 suite, the survey grid and the simfs flags
// all go through it. The zero Stack is the direct tier, uncompressed.
type Stack struct {
	Tier     string // "" = direct; otherwise a name from tiers
	Compress string // "" = none; otherwise a reduce preset
}

// tiers is the Stack name table: every tier storage.NewProvider builds.
var tiers = storage.Tiers()

// ParseStack canonicalizes a tier/compressor pair and validates it
// against the tier table and reduce.Names(). An unknown tier is reported
// before an unknown compressor.
func ParseStack(tier, compress string) (Stack, error) {
	s := Stack{Tier: tier, Compress: compress}.Canonical()
	if s.Tier != "" && !slices.Contains(tiers, s.Tier) {
		return Stack{}, fmt.Errorf("stack: unknown tier %q (want one of %v)", tier, tiers)
	}
	if s.Compress != "" {
		if _, ok := reduce.Lookup(s.Compress); !ok {
			return Stack{}, fmt.Errorf("stack: unknown compressor %q (want none or one of %v)", compress, reduce.Names())
		}
	}
	return s, nil
}

// Canonical rewrites the verbose default spellings, "direct" and
// "none", to "", so equivalent stacks compare equal. Unknown names pass
// through unchanged for ParseStack to reject.
func (s Stack) Canonical() Stack {
	if s.Tier == storage.TierDirect {
		s.Tier = ""
	}
	if s.Compress == "none" {
		s.Compress = ""
	}
	return s
}

// Build validates the stack and creates its provider over fs: the tier
// at the bottom, with the compressor (if any) pushed on top. Callers
// read stage and burst-buffer stats back through pr.Stages() and
// pr.Buffers().
func (s Stack) Build(e *des.Engine, fs *pfs.FS) (*storage.Provider, error) {
	s, err := ParseStack(s.Tier, s.Compress)
	if err != nil {
		return nil, err
	}
	pr, err := storage.NewProvider(e, fs, s.Tier, storage.ProviderConfig{})
	if err != nil {
		return nil, err
	}
	if s.Compress != "" {
		st, err := reduce.New(s.Compress)
		if err != nil {
			return nil, err
		}
		pr.Push(st)
	}
	return pr, nil
}
