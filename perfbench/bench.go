package main

import (
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median. Every repetition but the last is torn down again.
const setupReps = 3

// Failure reasons of an operation.
const (
	failCheck = "check" // a property check was violated
	failError = "error" // the program returned an error
	fail429   = "429"   // the service refused the submission
)

// bench is one run of one workload: its inputs, its measurements and
// its accounting.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	traceDir string
	rng      *rand.Rand
	start    time.Time // run start; spans are stamped relative to it
	host     hostInfo

	setups   []float64 // seconds per set-up repetition
	timedAt  sample    // at the start of the timed phase
	timed    delta     // over the timed phase
	maxRSS   float64   // MB, peak resident set at the end of the timed phase
	computed int       // timed jobs whose result was computed, not served again

	mu       sync.Mutex // guards the fields below, written by service clients
	jobs     int        // jobs completed in the timed phase
	ops      int
	failures map[string]int
	tables   int
	digest   hash.Hash64 // FNV-1a over the Table.Digest of every table produced
	correct  bool
	spans    []span

	// extra holds side figures printed on the extra line of every
	// run; layer holds per-layer metrics the workload measured itself.
	extra map[string]float64
	layer map[string]metric
	cpu   map[string]float64 // module → CPU ms over the timed phase (traced run)
}

func newBench(workload string, seed uint64, seconds time.Duration, traced bool) *bench {
	b := &bench{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		rng:      rand.New(rand.NewPCG(seed, 0x7065726662656e63)),
		start:    time.Now(),
		failures: map[string]int{},
		digest:   fnv.New64a(),
		correct:  true,
		extra:    map[string]float64{},
		layer:    map[string]metric{},
	}
	b.host = readHost()
	return b
}

// op is one attempted operation; fail records why it failed, once.
type op struct {
	id      int
	failure string
}

func (b *bench) newOp() *op {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ops++
	return &op{id: b.ops}
}

func (b *bench) fail(o *op, reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if o.failure == "" {
		o.failure = reason
		b.failures[reason]++
	}
}

func (b *bench) attempted() int { return b.ops }

func (b *bench) failed() int {
	n := 0
	for _, c := range b.failures {
		n += c
	}
	return n
}

// addTables folds the tables' digests into the run's combined digest.
func (b *bench) addTables(tables []*core.Table) {
	for _, t := range tables {
		b.addDigest(t.Digest(), 1)
	}
}

// addDigest folds one digest, standing for n tables, into the run's
// combined digest.
func (b *bench) addDigest(d uint64, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.digest.Write(binary.BigEndian.AppendUint64(nil, d))
	b.tables += n
}

// simSeed draws a simulation seed. Warm-up jobs use seeds below
// 1<<20, so a timed job never repeats a warm-up config.
func (b *bench) simSeed() uint64 { return 1<<20 + b.rng.Uint64N(1<<40) }

// shuffled returns the round's configs in a drawn order.
func (b *bench) shuffled(round []core.RunConfig) []core.RunConfig {
	out := append([]core.RunConfig(nil), round...)
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// startTimed opens the timed phase; a traced run starts its CPU
// profile here.
func (b *bench) startTimed() error {
	if b.traced {
		f, err := os.Create(b.profilePath())
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
	}
	b.timedAt = takeSample()
	return nil
}

// stopTimed closes the timed phase.
func (b *bench) stopTimed() {
	b.timed = takeSample().since(b.timedAt)
	b.maxRSS = maxRSSMB()
	if b.traced {
		pprof.StopCPUProfile()
	}
}

func (b *bench) profilePath() string {
	return filepath.Join(b.traceDir, "cpu-"+b.workload+".pprof")
}

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one job share Job.
type span struct {
	Name  string `json:"name"`
	Job   int    `json:"job"`
	Kind  string `json:"kind"`
	Tier  string `json:"tier,omitempty"` // cache tier, on exp.cell spans
	Start int64  `json:"start_ns"`       // since the run started
	End   int64  `json:"end_ns"`
}

// record keeps a span in memory (traced runs only).
func (b *bench) record(name string, job int, kind, tier string, start, end time.Time) {
	if !b.traced {
		return
	}
	b.mu.Lock()
	b.spans = append(b.spans, span{name, job, kind, tier,
		start.Sub(b.start).Nanoseconds(), end.Sub(b.start).Nanoseconds()})
	b.mu.Unlock()
}

// spanP50 is the median duration in ms of the named spans (0 if none).
func (b *bench) spanP50(name string) float64 {
	var d []float64
	for _, s := range b.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e6)
		}
	}
	return median(d)
}

// writeSpans writes the run's spans out at the end of a traced run.
func (b *bench) writeSpans() error {
	buf, err := json.Marshal(b.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.traceDir, "spans-"+b.workload+".json"), buf, 0o644)
}

// endToEnd returns the metrics of an untraced run.
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":        {median(b.setups), "s"},
		"jobs_per_s":     {float64(b.jobs) / b.timed.wall.Seconds(), "1/s"},
		"cpu_ms_per_job": {ms(b.timed.cpu) / float64(b.jobs), "ms"},
		"max_rss_mb":     {b.maxRSS, "MB"},
	}
}

// layerModules are the modules CPU samples are charged to.
var layerModules = []string{"sim", "machine", "heartbeat", "linux", "nautilus",
	"coherence", "farmem", "mem", "interp", "omp", "exp", "core", "cache", "serve", "other"}

// perLayer returns the metrics of a traced run. A figure that does not
// apply to the workload reads 0.
func (b *bench) perLayer() map[string]metric {
	jobs := float64(b.jobs)
	m := map[string]metric{
		"trace.jobs_per_s":       {jobs / b.timed.wall.Seconds(), "1/s"},
		"exp.cells_per_job":      {per(b.count("exp.cell"), float64(b.computed)), "count"},
		"cache.hit_ratio":        {0, "ratio"},
		"cache.computes_per_job": {0, "count"},
		"serve.dedup_ratio":      {0, "ratio"},
	}
	for _, mod := range layerModules {
		m[mod+".cpu_ms_per_job"] = metric{b.cpu[mod] / jobs, "ms"}
	}
	for name, v := range b.runtimePerJob() {
		m[name] = metric{v, runtimeUnits[name]}
	}
	for _, name := range []string{"core.run", "exp.cell", "serve.submit", "serve.compute", "serve.result"} {
		m[name+"_p50_ms"] = metric{b.spanP50(name), "ms"}
	}
	for _, name := range serviceLatencies {
		m[name] = metric{b.extra[name], "ms"}
	}
	maps.Copy(m, b.layer)
	return m
}

// serviceLatencies are the service's request latencies, from
// submitting a job to having its result bytes, by whether the config
// had already completed (hit) or not (miss). A hit takes well under a
// millisecond, so only its median over thousands of hits is reported.
// The median miss is not reported: on one P a miss shares the CPU with
// whatever the other client computes meanwhile, and the median fell
// between two groups of latencies (60 to 122 ms over ten runs).
var serviceLatencies = []string{"serve.miss_p90_ms", "serve.hit_p50_ms"}

// count is the number of spans with the given name.
func (b *bench) count(name string) float64 {
	n := 0
	for _, s := range b.spans {
		if s.Name == name {
			n++
		}
	}
	return float64(n)
}

// per is x / n, or 0 for no n.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

var runtimeUnits = map[string]string{
	"runtime.allocs_per_job":    "count",
	"runtime.alloc_mb_per_job":  "MB",
	"runtime.gc_cycles_per_job": "count",
	"runtime.gc_cpu_ms_per_job": "ms",
}

// runtimePerJob divides the Go runtime's counters over the timed phase
// by the jobs completed in it.
func (b *bench) runtimePerJob() map[string]float64 {
	jobs := float64(b.jobs)
	d := b.timed
	return map[string]float64{
		"runtime.allocs_per_job":    d.allocs / jobs,
		"runtime.alloc_mb_per_job":  d.allocBytes / (1 << 20) / jobs,
		"runtime.gc_cycles_per_job": d.gcCycles / jobs,
		"runtime.gc_cpu_ms_per_job": d.gcCPU * 1e3 / jobs,
	}
}

// sample is a reading of the clocks and counters a phase is measured by.
type sample struct {
	wall time.Time
	cpu  time.Duration
	rt   []metrics.Sample
}

// delta is the difference of two samples.
type delta struct {
	wall                                time.Duration
	cpu                                 time.Duration
	allocs, allocBytes, gcCycles, gcCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func takeSample() sample {
	s := sample{rt: make([]metrics.Sample, len(runtimeMetrics))}
	for i, name := range runtimeMetrics {
		s.rt[i].Name = name
	}
	metrics.Read(s.rt)
	s.cpu = processCPU()
	s.wall = time.Now()
	return s
}

func (s sample) since(t sample) delta {
	v := func(i int) float64 { return metricValue(s.rt[i]) - metricValue(t.rt[i]) }
	return delta{
		wall:       s.wall.Sub(t.wall),
		cpu:        s.cpu - t.cpu,
		allocs:     v(0),
		allocBytes: v(1),
		gcCycles:   v(2),
		gcCPU:      v(3),
	}
}

func metricValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// hostInfo records what a noisy run can be told apart by.
type hostInfo struct {
	gomaxprocs   int
	nproc        int
	goVersion    string
	stealAt      float64 // /proc/stat steal seconds at run start
	stealSeconds float64 // steal over the run, all CPUs
}

func readHost() hostInfo {
	return hostInfo{
		gomaxprocs: runtime.GOMAXPROCS(0),
		nproc:      runtime.NumCPU(),
		goVersion:  runtime.Version(),
		stealAt:    stealSeconds(),
	}
}
