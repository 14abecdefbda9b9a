package workload

import (
	"reflect"
	"testing"

	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// TestScaleFormEquivalence checks that the continuation-form checkpoint,
// run on one shard, reproduces the goroutine-form checkpoint exactly on a
// fault-free run: same makespan, same per-step I/O times, same bytes on
// the OSTs. The two forms share every cost model and differ only in how
// ranks suspend, so any divergence is a porting bug.
func TestScaleFormEquivalence(t *testing.T) {
	run := func(continuation bool) (des.Time, []des.Time, int64) {
		if continuation {
			var fs *pfs.FS
			rep := RunShardedCheckpoint(ShardedConfig{
				Scale: ScaleConfig{
					Ranks: 8, BytesPerRank: 2 << 20, Steps: 3,
					ComputeTime: des.Millisecond, TransferSize: 1 << 20,
					NodePrefix: "ckpt",
				},
				Seed:        1,
				AttachShard: func(_ int, _ *des.Engine, shardFS *pfs.FS) { fs = shardFS },
			})
			_, written := fs.TotalBytes()
			return rep.Makespan, rep.StepIOTime, written
		}
		e := des.NewEngine(1)
		fs := pfs.New(e, pfs.DefaultConfig())
		h := NewHarness(e, fs, 8, "ckpt", nil)
		rep := RunCheckpoint(h, CheckpointConfig{
			Ranks: 8, BytesPerRank: 2 << 20, Steps: 3,
			ComputeTime: des.Millisecond, TransferSize: 1 << 20,
		})
		_, written := fs.TotalBytes()
		return rep.Makespan, rep.StepIOTime, written
	}

	gm, gs, gb := run(false)
	cm, cs, cb := run(true)
	if gm != cm {
		t.Errorf("makespan: goroutine %v, continuation %v", gm, cm)
	}
	if !reflect.DeepEqual(gs, cs) {
		t.Errorf("step I/O times: goroutine %v, continuation %v", gs, cs)
	}
	if gb != cb {
		t.Errorf("bytes written: goroutine %d, continuation %d", gb, cb)
	}
	if gb != 8*(2<<20)*3 {
		t.Errorf("bytes written = %d, want %d", gb, 8*(2<<20)*3)
	}
}

// TestScaleCheckpointDeterminism checks that repeated single-engine
// continuation-form runs are bit-identical, and that one shard runs in a
// single window.
func TestScaleCheckpointDeterminism(t *testing.T) {
	run := func() ShardedReport {
		return RunShardedCheckpoint(ShardedConfig{
			Scale: ScaleConfig{
				Ranks: 16, BytesPerRank: 1 << 20, Steps: 2,
				TransferSize: 256 << 10, RanksPerNode: 4, StripeCount: 1,
			},
			Seed: 7,
		})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-deterministic scale run:\n%+v\n%+v", a, b)
	}
	if a.Windows != 1 {
		t.Errorf("one-shard run took %d windows, want 1", a.Windows)
	}
}

// TestShardedWorkersInvariance checks the ParallelGroup contract end to
// end: a sharded checkpoint produces byte-identical output whether the
// shards execute sequentially (Workers 1), on fewer pool workers than
// shards (mixed pinning), on one worker per shard, or at the
// host-dependent default. The -race CI sweep smoke runs the same shape.
func TestShardedWorkersInvariance(t *testing.T) {
	run := func(workers int) ShardedReport {
		rep := RunShardedCheckpoint(ShardedConfig{
			Scale: ScaleConfig{
				Ranks: 12, BytesPerRank: 1 << 20, Steps: 2,
				ComputeTime: des.Millisecond, TransferSize: 512 << 10,
				RanksPerNode: 2, StripeCount: 1,
			},
			Shards:  3,
			Workers: workers,
			Seed:    42,
		})
		rep.Workers = 0 // normalize the one intentionally-differing knob
		return rep
	}
	seq := run(1)
	for _, workers := range []int{2, 3, 0} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Errorf("sharded run differs between Workers=1 and Workers=%d:\nseq: %+v\npar: %+v", workers, seq, par)
		}
	}
	if seq.IOErrors != 0 {
		t.Errorf("unexpected I/O errors: %d", seq.IOErrors)
	}
	if seq.Windows == 0 {
		t.Error("report should count ParallelGroup windows")
	}
	var ranks int
	for _, n := range seq.RanksPerShard {
		ranks += n
	}
	if ranks != 12 {
		t.Errorf("ranks across shards = %d, want 12", ranks)
	}
}

// TestShardedBytesConserved checks that every checkpoint byte lands on
// some shard's OSTs.
func TestShardedBytesConserved(t *testing.T) {
	var shardFS []*pfs.FS
	RunShardedCheckpoint(ShardedConfig{
		Scale: ScaleConfig{
			Ranks: 8, BytesPerRank: 1 << 20, Steps: 2,
			TransferSize: 512 << 10, StripeCount: 1,
		},
		Shards: 2,
		AttachShard: func(shard int, e *des.Engine, fs *pfs.FS) {
			shardFS = append(shardFS, fs)
		},
	})
	var written int64
	for _, fs := range shardFS {
		_, w := fs.TotalBytes()
		written += w
	}
	if want := int64(8 * (1 << 20) * 2); written != want {
		t.Errorf("bytes written across shards = %d, want %d", written, want)
	}
}

// TestShardedKeepsIONodes checks that sharding never drops I/O forwarding
// nodes: a count below the shard count stays whole on every shard rather
// than rounding to zero (a flat network), and larger counts divide.
func TestShardedKeepsIONodes(t *testing.T) {
	for _, c := range []struct{ ionodes, shards, want int }{
		{0, 4, 0}, {2, 4, 2}, {4, 4, 1}, {8, 4, 2}, {3, 1, 3},
	} {
		fscfg := pfs.DefaultConfig()
		fscfg.NumIONodes = c.ionodes
		var got []int
		RunShardedCheckpoint(ShardedConfig{
			Scale:  ScaleConfig{Ranks: 8, BytesPerRank: 256 << 10, Steps: 1, StripeCount: 1},
			Shards: c.shards,
			FS:     fscfg,
			AttachShard: func(shard int, e *des.Engine, fs *pfs.FS) {
				got = append(got, fs.Config().NumIONodes)
			},
		})
		for sh, n := range got {
			if n != c.want {
				t.Errorf("%d I/O nodes over %d shards: shard %d has %d, want %d", c.ionodes, c.shards, sh, n, c.want)
			}
		}
	}
}
