package mpi

import (
	"reflect"
	"testing"

	"pioeval/internal/des"
)

// Round kinds of a decoded rank program.
const (
	opCompute = iota // every rank computes for its own duration
	opBarrier
	opShift     // every rank sends n bytes to (id+s)%P, then receives from (id-s)%P
	opAllgather // every rank gathers n bytes from every rank
	numOps
)

type round struct {
	op byte
	a  int   // compute seed, or shift distance
	n  int64 // bytes per message (shift) or per rank (allgather)
}

// rankProgram is a deadlock-free MPI program: 2-6 ranks, up to 8 rounds.
type rankProgram struct {
	ranks  int
	rounds []round
}

// decodeRankProgram maps arbitrary bytes onto a deadlock-free program:
// the first byte picks the rank count, then every two bytes pick one
// round's kind and argument.
func decodeRankProgram(data []byte) rankProgram {
	pr := rankProgram{ranks: 2}
	if len(data) == 0 {
		return pr
	}
	pr.ranks = 2 + int(data[0])%5
	data = data[1:]
	for len(data) >= 2 && len(pr.rounds) < 8 {
		op, a := data[0]%numOps, int(data[1])
		data = data[2:]
		rd := round{op: op, a: a}
		switch op {
		case opShift:
			rd.a = a % pr.ranks
			rd.n = int64(a) * 512
		case opAllgather:
			rd.n = int64(a) * 256
		}
		pr.rounds = append(pr.rounds, rd)
	}
	return pr
}

// computeTime gives each rank its own duration, so ranks reach the next
// round at different times.
func (rd round) computeTime(id int) des.Time {
	return des.Time((rd.a*7+id*13)%64) * des.Microsecond
}

func (rd round) peers(id, size int) (dst, src int) {
	return (id + rd.a) % size, (id - rd.a + size) % size
}

// formResult is everything a rank program observably produces.
type formResult struct {
	End       des.Time
	Finish    []des.Time
	RecvBytes []int64
	Messages  uint64
	BytesSent int64
	Events    uint64
}

var formOpts = Options{Alpha: 1500 * des.Nanosecond, BetaBps: 1e9}

func runProgram(t *testing.T, pr rankProgram, event bool) formResult {
	t.Helper()
	e := des.NewEngine(1)
	w := NewWorld(e, pr.ranks, formOpts)
	res := formResult{Finish: make([]des.Time, pr.ranks), RecvBytes: make([]int64, pr.ranks)}
	if event {
		w.SpawnEvent(func(r *Rank) {
			id := r.ID()
			var step func(i int)
			step = func(i int) {
				if i == len(pr.rounds) {
					res.Finish[id] = r.Now()
					return
				}
				next := func() { step(i + 1) }
				switch rd := pr.rounds[i]; rd.op {
				case opCompute:
					r.ComputeE(rd.computeTime(id), next)
				case opBarrier:
					r.BarrierE(next)
				case opAllgather:
					r.AllgatherE(rd.n, next)
				case opShift:
					dst, src := rd.peers(id, pr.ranks)
					r.SendE(dst, i, rd.n, func() {
						r.RecvE(src, i, func(m Message) {
							res.RecvBytes[id] += m.Size
							next()
						})
					})
				}
			}
			step(0)
		})
	} else {
		w.Spawn(func(r *Rank) {
			id := r.ID()
			for i, rd := range pr.rounds {
				switch rd.op {
				case opCompute:
					r.Compute(rd.computeTime(id))
				case opBarrier:
					r.Barrier()
				case opAllgather:
					r.Allgather(rd.n)
				case opShift:
					dst, src := rd.peers(id, pr.ranks)
					r.Send(dst, i, rd.n)
					res.RecvBytes[id] += r.Recv(src, i).Size
				}
			}
			res.Finish[id] = r.Now()
		})
	}
	res.End = e.Run(des.MaxTime)
	if e.LiveProcs() != 0 {
		t.Fatalf("program %+v (event form %v): deadlock with %d live ranks", pr, event, e.LiveProcs())
	}
	res.Messages, res.BytesSent, res.Events = w.Messages(), w.BytesSent(), e.Dispatches()
	return res
}

// FuzzRankForms runs every decoded program once with goroutine ranks and
// once with event ranks and requires the same end time, per-rank finish
// times, received bytes, message and byte counts, and engine dispatches:
// the blocking methods are veneers over the continuation methods, so any
// divergence is a veneer bug.
func FuzzRankForms(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, opCompute, 9, opBarrier, 0, opShift, 1, opCompute, 200, opAllgather, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		pr := decodeRankProgram(data)
		g, ev := runProgram(t, pr, false), runProgram(t, pr, true)
		if !reflect.DeepEqual(g, ev) {
			t.Fatalf("program %+v:\ngoroutine form %+v\nevent form     %+v", pr, g, ev)
		}
	})
}
