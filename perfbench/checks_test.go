package main

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestChecksCatchOneAlteredCell proves the property checks are not
// vacuous: each passes on real tables and fails once a single cell of
// them is altered.
func TestChecksCatchOneAlteredCell(t *testing.T) {
	fig3 := core.DefaultRunConfig("fig3")
	fig3.Overheads = true
	fig7 := core.DefaultRunConfig("fig7")
	fig7.Ablate = true
	farmem := core.DefaultRunConfig("farmem")
	cfgs := []core.RunConfig{fig3, fig7, farmem}

	real := make([][]*core.Table, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			real[i], _, errs[i] = (&core.Runner{Parallel: 1}).Run(context.Background(), cfg, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cfgs[i].Experiment, err)
		}
	}
	check := []func(core.RunConfig, []*core.Table) error{checkHeartbeat, checkMemsys, checkMemsys}
	for i, cfg := range cfgs {
		if err := check[i](cfg, real[i]); err != nil {
			t.Fatalf("%s: real tables fail the checks: %v", cfg.Experiment, err)
		}
	}

	cases := []struct {
		name  string
		cfg   int    // index into cfgs
		table int    // index into the job's tables
		row   int    // row to alter
		col   string // column to alter
		value string
	}{
		{"fig3 target rate", 0, 0, 0, "target rate/Mcyc", "51.0"},
		{"fig3 achieved/target", 0, 0, 1, "achieved/target", "0.52"},
		{"fig3 nautilus achieved/target", 0, 0, 2, "achieved/target", "0.90"},
		{"fig3 overheads order", 0, 1, 0, "overhead", "99.0%"},
		{"fig7 average speedup", 1, 0, 6, "speedup", "1.61"},
		{"fig7 average energy", 1, 0, 6, "energy reduction", "60.0%"},
		{"fig7 speedup at most 1", 1, 0, 2, "speedup", "0.98"},
		{"fig7 ablation order", 1, 1, 0, "speedup", "1.10"},
		{"farmem speedup", 2, 0, 0, "speedup", "28.45x"},
		{"farmem pages latency", 2, 0, 1, "pages lat (cyc)", "2196.1"},
		{"farmem objects traffic", 2, 0, 3, "objects traffic (MB)", "0.01"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tables := cloneTables(real[c.cfg])
			tab := tables[c.table]
			i := slices.Index(tab.Header, c.col)
			if i < 0 {
				t.Fatalf("%s has no column %q", tab.ID, c.col)
			}
			if tab.Rows[c.row][i] == c.value {
				t.Fatalf("%s row %d %q already reads %s", tab.ID, c.row, c.col, c.value)
			}
			tab.Rows[c.row][i] = c.value
			if err := check[c.cfg](cfgs[c.cfg], tables); err == nil {
				t.Errorf("%s row %d %q = %s passes the checks", tab.ID, c.row, c.col, c.value)
			}
		})
	}

	t.Run("service byte mismatch", func(t *testing.T) {
		first := render(real[2])
		if err := checkSameBytes("id", first, render(real[2])); err != nil {
			t.Fatalf("equal bytes fail: %v", err)
		}
		altered := slices.Clone(first)
		altered[len(altered)/2] ^= 1
		if checkSameBytes("id", first, altered) == nil {
			t.Error("one altered byte passes")
		}
	})
}

func cloneTables(tables []*core.Table) []*core.Table {
	out := make([]*core.Table, len(tables))
	for i, t := range tables {
		c := *t
		c.Rows = make([][]string, len(t.Rows))
		for j, r := range t.Rows {
			c.Rows[j] = slices.Clone(r)
		}
		out[i] = &c
	}
	return out
}
