package main

import (
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file reduces a pprof CPU profile, as runtime/pprof writes it, to
// self time per layer. The toolchain's `go tool pprof -top` lists each
// function's flat (self) time, with inlined callees as functions of their
// own, so each sample goes to the package of its leaf frame: the
// innermost function the CPU was executing in, inlined or not.
// Simulator packages (pioeval/internal/<pkg>) are layers of their own;
// runtime frames fall into the gc, malloc, sched or other bucket; every
// other package is "other". It reads the profile file after the program
// wrote it, so the reducer works on any profile, simfs -cpuprofile too.

// cpuShares maps a layer (des, pfs, runtime.gc, other, ...) to its share
// of the profile's CPU time.
type cpuShares struct {
	total time.Duration
	frac  map[string]float64
}

func reduceProfileFile(path string) (cpuShares, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-unit=ns", "-sample_index=cpu", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof %s: %v: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return reduceTop(top)
}

// reduceTop sums the flat column of `go tool pprof -top -unit=ns` output
// per layer. A row reads "<flat>ns <flat%> <sum%> <cum>ns <cum%> <function>",
// the function name possibly followed by " (inline)".
func reduceTop(top []byte) (cpuShares, error) {
	byLayer := map[string]int64{}
	var total int64
	header := true
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if header {
			header = len(f) == 0 || f[0] != "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseInt(strings.TrimSuffix(f[0], "ns"), 10, 64)
		if err != nil {
			return cpuShares{}, fmt.Errorf("pprof -top row %q: %v", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		byLayer[layerOf(name)] += ns
		total += ns
	}
	if header {
		return cpuShares{}, fmt.Errorf("pprof -top output has no flat column")
	}
	out := cpuShares{total: time.Duration(total), frac: map[string]float64{}}
	for l, v := range byLayer {
		if total > 0 {
			out.frac[l] = float64(v) / float64(total)
		}
	}
	return out, nil
}

// layerOf maps a leaf function name to its layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "pioeval/internal/"):
		l, _, _ := strings.Cut(strings.TrimPrefix(pkg, "pioeval/internal/"), "/")
		return l
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime." + runtimeBucket(fn)
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "pioeval/internal/des.(*Queue[...]).Put".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var runtimeBuckets = []struct {
	bucket string
	marks  []string
}{
	{"malloc", []string{"malloc", "nextFree", "refill", "cacheSpan", "allocSpan", "mheap", "mcentral",
		"mcache", "newobject", "newarray", "makeslice", "growslice", "memclr", "heapSetType", "rawstring",
		"rawbyteslice", "makemap", "(*mspan).init"}},
	{"gc", []string{"gc", "mark", "scan", "sweep", "scav", "greyobject", "findObject", "wbBuf",
		"WriteBarrier", "bulkBarrier", "spanOf", "heapBits", "typePointers", "finalizer"}},
	{"sched", []string{"chan", "select", "lock", "casgstatus", "futex", "gopark", "goready", "ready",
		"schedule", "findRunnable", "park_m", "runq", "stealWork", "wakep", "startm", "stopm", "mcall",
		"gogo", "goexit", "newproc", "gfget", "gfput", "sema", "procyield", "osyield", "usleep", "execute",
		"netpoll", "pinning", "pidle", "timeHistogram", "acquirep", "releasep", "handoffp", "notesleep", "notewakeup", "mPark",
		"syscall", "send", "recv", "sellock", "waitq", "checkTimers", "guintptr", "Sudog", "mLockProfile"}},
}

// runtimeBucket classifies a runtime leaf frame.
func runtimeBucket(fn string) string {
	name := fn[strings.LastIndex(fn, "/")+1:]
	for _, b := range runtimeBuckets {
		for _, m := range b.marks {
			if strings.Contains(name, m) {
				return b.bucket
			}
		}
	}
	return "other"
}

// printShares writes the reduction, largest share first.
func printShares(w io.Writer, s cpuShares) {
	type kv struct {
		k string
		v float64
	}
	var rows []kv
	for k, v := range s.frac {
		if v > 0 {
			rows = append(rows, kv{k, v})
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].v > rows[b].v || rows[a].v == rows[b].v && rows[a].k < rows[b].k })
	fmt.Fprintf(w, "cpu profile: %v of CPU, self time by layer (leaf frame)\n", s.total)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %6.2f%%\n", r.k, 100*r.v)
	}
}
