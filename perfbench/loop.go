package main

import (
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/core"
)

// loopWorkload is a closed loop with one caller through core.Runner at
// cell-pool width 1 with the result cache off: each round issues the
// same kinds of job in a drawn order with drawn simulation seeds.
// After the timed phase every job that ran on the sharded engine
// (Domains > 1) is run again on the sequential oracle, whose tables
// must be byte-identical.
type loopWorkload struct {
	warmup []core.RunConfig // one untimed job of each kind, per set-up
	round  []core.RunConfig // the kinds of one round
	check  func(core.RunConfig, []*core.Table) error
}

// runHeartbeat: fig3 jobs, half with the overheads table, one in four
// in steal-domain mode on the sharded engine.
func runHeartbeat(b *bench) error {
	fig3 := func(domains int, overheads bool) core.RunConfig {
		cfg := core.DefaultRunConfig("fig3")
		cfg.Domains = domains
		cfg.Overheads = overheads
		return cfg
	}
	return b.closedLoop(loopWorkload{
		warmup: []core.RunConfig{fig3(2, true)},
		round:  []core.RunConfig{fig3(0, false), fig3(0, true), fig3(0, false), fig3(2, true)},
		check:  checkHeartbeat,
	})
}

// runMemsys: fig7 jobs, one of two with the ablation table, and
// farmem jobs.
func runMemsys(b *bench) error {
	fig7 := core.DefaultRunConfig("fig7")
	ablate := fig7
	ablate.Ablate = true
	farmem := core.DefaultRunConfig("farmem")
	return b.closedLoop(loopWorkload{
		warmup: []core.RunConfig{fig7, farmem},
		round:  []core.RunConfig{fig7, ablate, farmem},
		check:  checkMemsys,
	})
}

// loopJob is one completed job of the timed phase.
type loopJob struct {
	op      *op
	cfg     core.RunConfig
	digests []uint64
}

func (b *bench) closedLoop(w loopWorkload) error {
	ctx := context.Background()
	var runner *core.Runner
	for range setupReps {
		t0 := time.Now()
		runner = &core.Runner{Parallel: 1}
		core.VersionSalt()
		for i, cfg := range w.warmup {
			cfg.Seed = uint64(i + 1)
			if _, _, err := runner.Run(ctx, cfg, nil); err != nil {
				return fmt.Errorf("warm-up %s: %w", cfg.Experiment, err)
			}
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}

	if err := b.startTimed(); err != nil {
		return err
	}
	var done []loopJob
	deadline := time.Now().Add(b.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, cfg := range b.shuffled(w.round) {
			cfg.Seed = b.simSeed()
			if j, ok := b.loopJob(ctx, runner, cfg, w.check); ok {
				done = append(done, j)
			}
		}
	}
	b.stopTimed()
	b.computed = b.jobs

	seq := &core.Runner{Parallel: 1, Shards: 1}
	for _, j := range done {
		if j.cfg.Domains <= 1 {
			continue
		}
		tables, _, err := seq.Run(ctx, j.cfg, nil)
		if err == nil {
			err = sameDigests(j.digests, tables)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "check: %s seed %d on the sequential oracle: %v\n",
				j.cfg.Experiment, j.cfg.Seed, err)
			b.fail(j.op, failCheck)
		}
	}
	return b.finishTrace()
}

// loopJob runs and checks one job of the timed phase.
func (b *bench) loopJob(ctx context.Context, runner *core.Runner, cfg core.RunConfig,
	check func(core.RunConfig, []*core.Table) error) (loopJob, bool) {
	o := b.newOp()
	job := o.id
	last := time.Now()
	observe := func(ev core.CellEvent) {
		now := time.Now()
		b.record("exp.cell", job, ev.Driver, ev.Source.String(), last, now)
		last = now
	}
	var (
		tables []*core.Table
		err    error
	)
	start := time.Now()
	pprof.Do(ctx, pprof.Labels("workload", b.workload, "experiment", cfg.Experiment),
		func(ctx context.Context) {
			tables, _, err = runner.Run(ctx, cfg, observe)
		})
	b.record("core.run", job, cfg.Experiment, "", start, time.Now())
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %s seed %d: %v\n", cfg.Experiment, cfg.Seed, err)
		b.fail(o, failError)
		return loopJob{}, false
	}
	b.jobs++
	b.addTables(tables)
	if err := check(cfg, tables); err != nil {
		fmt.Fprintf(os.Stderr, "check: %s seed %d: %v\n", cfg.Experiment, cfg.Seed, err)
		b.fail(o, failCheck)
	}
	j := loopJob{op: o, cfg: cfg}
	for _, t := range tables {
		j.digests = append(j.digests, t.Digest())
	}
	return j, true
}

// sameDigests reports whether tables are the tables digests came from.
func sameDigests(digests []uint64, tables []*core.Table) error {
	if len(tables) != len(digests) {
		return fmt.Errorf("%d tables, want %d", len(tables), len(digests))
	}
	for i, t := range tables {
		if t.Digest() != digests[i] {
			return fmt.Errorf("table %s: digest %016x, want %016x", t.ID, t.Digest(), digests[i])
		}
	}
	return nil
}
