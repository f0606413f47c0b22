// Command perfbench is the reproduction's benchmark: it drives the
// experiment registry through the doors its front ends use
// (core.Runner for interweave, serve.New(...).Handler() for
// interweaved), measures each workload end to end, and checks every
// job's output against properties the method must have.
//
//	perfbench --workload heartbeat|memsys|service --seed N --seconds S --trace 0|1
//	perfbench --workload W --repeat N [--seed N --seconds S]
//
// A run prints a host line, an accounting line, an extra line of
// untraced side figures, and as its last line one JSON object: the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1,
// a separate run with a CPU profile and spans on). --repeat runs the
// workload N times as child processes, one seed each, and prints each
// metric's median, quartiles and spread; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloadSpec is a workload's function and the GOMAXPROCS it runs at.
type workloadSpec struct {
	run func(*bench) error
	// procs is the run's GOMAXPROCS, 0 for the Go default (nproc).
	// With a second P, the GC's idle mark workers, the sharded engine's
	// second worker and the service's second client kept both vCPUs
	// busy, and those runs spread two to seven times as much under the
	// neighbours' load as runs on one P (runs taken in pairs:
	// heartbeat 0.214-0.307 jobs/s at 2 Ps, 0.221-0.269 at 1 P;
	// service 132-192 at 2 Ps, 99-105 at 1 P). memsys keeps the
	// default: it uses one vCPU either way, and at 1 P its peak
	// resident set, reached in set-up, read 154 MB in some runs and
	// 177-193 MB in others.
	procs int
}

// execWithProcs replaces this process with the same command at n Ps.
// The runtime must start at n: a process that started at 2 Ps and
// called runtime.GOMAXPROCS(1) peaked 2-6 MB higher in resident set,
// by a different amount in every run. Only the first GOMAXPROCS entry
// of the environment counts, so every other one is dropped.
func execWithProcs(n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := slices.DeleteFunc(os.Environ(), func(kv string) bool {
		return strings.HasPrefix(kv, "GOMAXPROCS=")
	})
	return syscall.Exec(self, os.Args, append(env, "GOMAXPROCS="+strconv.Itoa(n)))
}

// workloads maps a workload name to how it runs.
var workloads = map[string]workloadSpec{
	"heartbeat": {runHeartbeat, 1},
	"memsys":    {runMemsys, 0},
	"service":   {runService, 1},
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "heartbeat, memsys or service")
	seed := fs.Uint64("seed", 1, "draws every job list of the run")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds (whole rounds are completed)")
	trace := fs.Int("trace", 0, "1: traced run (CPU profile and spans), prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times as child processes, seeds seed, seed+1, ...")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (heartbeat, memsys, service)", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if *repeat > 0 {
		return repeatRuns(stdout, *workload, *seed, *seconds, *trace, *repeat)
	}

	if wl.procs > 0 && runtime.GOMAXPROCS(0) != wl.procs {
		return execWithProcs(wl.procs)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if b.traced {
		// Profiles and spans go where the build goes, inside the
		// checkout and ignored by git.
		b.traceDir = filepath.Join(".bench_build", "trace")
		if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
			return err
		}
	}
	if err := wl.run(b); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if b.jobs == 0 {
		return errors.New("no job completed in the timed phase")
	}
	return b.report(stdout)
}

// report prints the host and accounting lines and the result object.
func (b *bench) report(w io.Writer) error {
	h := b.host
	fmt.Fprintf(w, "host: gomaxprocs=%d nproc=%d go=%s steal_s=%.2f\n",
		h.gomaxprocs, h.nproc, h.goVersion, h.stealSeconds)
	fmt.Fprintf(w, "accounting: workload=%s attempted=%d failed=%d check=%d error=%d 429=%d tables=%d digest=%016x\n",
		b.workload, b.attempted(), b.failed(), b.failures[failCheck],
		b.failures[failError], b.failures[fail429], b.tables, b.digest.Sum64())
	extra, err := json.Marshal(b.extra)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "extra: %s\n", extra)

	var metrics map[string]metric
	if b.traced {
		metrics = b.perLayer()
	} else {
		metrics = b.endToEnd()
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.correct, b.attempted(), b.failed(), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
