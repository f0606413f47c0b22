package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// The checks compute what a table must say from properties of the
// method, never from stored output. Each returns the first violation.

// checkHeartbeat checks a fig3 job: the achieved-vs-target table and,
// when asked for, the overheads table.
func checkHeartbeat(cfg core.RunConfig, tables []*core.Table) error {
	want := []string{"fig3"}
	if cfg.Overheads {
		want = append(want, "fig3-overheads")
	}
	if err := tableIDs(tables, want); err != nil {
		return err
	}
	if err := checkFig3(tables[0]); err != nil {
		return err
	}
	if cfg.Overheads {
		return checkOverheads(tables[1])
	}
	return nil
}

// checkMemsys checks a fig7 job (with its ablation when asked for) or
// a farmem job.
func checkMemsys(cfg core.RunConfig, tables []*core.Table) error {
	if cfg.Experiment == "farmem" {
		if err := tableIDs(tables, []string{"farmem"}); err != nil {
			return err
		}
		return checkFarmem(tables[0])
	}
	want := []string{"fig7"}
	if cfg.Ablate {
		want = append(want, "fig7-ablation")
	}
	if err := tableIDs(tables, want); err != nil {
		return err
	}
	if err := checkFig7(tables[0]); err != nil {
		return err
	}
	if cfg.Ablate {
		return checkAblation(tables[1])
	}
	return nil
}

func tableIDs(tables []*core.Table, want []string) error {
	var got []string
	for _, t := range tables {
		got = append(got, t.ID)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("tables %v, want %v", got, want)
	}
	return nil
}

// checkFig3: the target rate is 1000 ÷ the target period in µs (the
// 1 GHz model), achieved/target is the quotient of its two columns,
// nautilus-ipi reaches 0.95 of its target at every period, and at
// 20µs it beats linux-signals.
func checkFig3(t *core.Table) error {
	p := parser{t: t}
	achieved20 := map[string]float64{}
	periods := map[float64]bool{}
	for _, r := range t.Rows {
		sub := p.str(r, "substrate")
		period := p.num(r, "target ♥")
		target := p.num(r, "target rate/Mcyc")
		achieved := p.num(r, "achieved rate/Mcyc")
		ratio := p.num(r, "achieved/target")
		if p.err != nil {
			return p.err
		}
		if want := 1000 / period; math.Abs(target-want) > 0.05+1e-9 {
			return fmt.Errorf("fig3 %s %gµs: target rate %g, want 1000/%g = %.1f", sub, period, target, period, want)
		}
		// achieved is printed to 0.1 and the ratio to 0.01.
		if want := achieved / target; math.Abs(ratio-want) > 0.005+0.05/target+1e-9 {
			return fmt.Errorf("fig3 %s %gµs: achieved/target %g, want %g/%g = %.3f", sub, period, ratio, achieved, target, want)
		}
		if sub == "nautilus-ipi" {
			periods[period] = true
			if ratio < 0.95 {
				return fmt.Errorf("fig3 nautilus-ipi %gµs reaches %.2f of target, want >= 0.95", period, ratio)
			}
		}
		if period == 20 {
			achieved20[sub] = achieved
		}
	}
	if !periods[20] || !periods[100] {
		return fmt.Errorf("fig3: nautilus-ipi rows at %v µs, want 20 and 100", periods)
	}
	n, l := achieved20["nautilus-ipi"], achieved20["linux-signals"]
	if n <= l {
		return fmt.Errorf("fig3 20µs: nautilus-ipi %g does not beat linux-signals %g", n, l)
	}
	return nil
}

// checkOverheads: nautilus-ipi's scheduling overhead is below
// linux-polling's.
func checkOverheads(t *core.Table) error {
	p := parser{t: t}
	over := map[string]float64{}
	for _, r := range t.Rows {
		over[p.str(r, "substrate")] = p.num(r, "overhead")
	}
	if p.err != nil {
		return p.err
	}
	n, okN := over["nautilus-ipi"]
	l, okL := over["linux-polling"]
	if !okN || !okL {
		return fmt.Errorf("fig3-overheads: rows %v, want nautilus-ipi and linux-polling", over)
	}
	if n >= l {
		return fmt.Errorf("fig3-overheads: nautilus-ipi %g%% not below linux-polling %g%%", n, l)
	}
	return nil
}

// checkFig7: the average row is the mean of the benchmark rows, every
// speedup is above 1 and every energy reduction above 0.
func checkFig7(t *core.Table) error {
	p := parser{t: t}
	var sp, en []float64
	var avgSp, avgEn float64
	haveAvg := false
	for _, r := range t.Rows {
		s, e := p.num(r, "speedup"), p.num(r, "energy reduction")
		if p.err != nil {
			return p.err
		}
		name := p.str(r, "benchmark")
		if s <= 1 || e <= 0 {
			return fmt.Errorf("fig7 %s: speedup %g, energy reduction %g%%; want > 1 and > 0", name, s, e)
		}
		if name == "average" {
			avgSp, avgEn, haveAvg = s, e, true
			continue
		}
		sp, en = append(sp, s), append(en, e)
	}
	if !haveAvg || len(sp) == 0 {
		return fmt.Errorf("fig7: want benchmark rows and an average row")
	}
	// Rows print speedups to 0.01 and reductions to 0.1%: the mean of
	// rounded rows is off by at most half a unit, the average's own
	// rounding by another half.
	if m := mean(sp); math.Abs(avgSp-m) > 0.01+1e-9 {
		return fmt.Errorf("fig7: average speedup %g, mean of rows %.4f", avgSp, m)
	}
	if m := mean(en); math.Abs(avgEn-m) > 0.1+1e-9 {
		return fmt.Errorf("fig7: average energy reduction %g%%, mean of rows %.3f%%", avgEn, m)
	}
	return nil
}

// checkAblation: deactivating all sharing classes is at least as good
// as deactivating any single one.
func checkAblation(t *core.Table) error {
	p := parser{t: t}
	type row struct {
		name   string
		sp, en float64
	}
	var all *row
	var single []row
	for _, r := range t.Rows {
		x := row{p.str(r, "classes deactivated"), p.num(r, "speedup"), p.num(r, "energy reduction")}
		if x.name == "all" {
			all = &x
		} else {
			single = append(single, x)
		}
	}
	if p.err != nil {
		return p.err
	}
	if all == nil || len(single) == 0 {
		return fmt.Errorf("fig7-ablation: want an \"all\" row and single-class rows")
	}
	for _, s := range single {
		if s.sp > all.sp || s.en > all.en {
			return fmt.Errorf("fig7-ablation: %q (%g, %g%%) beats all (%g, %g%%)", s.name, s.sp, s.en, all.sp, all.en)
		}
	}
	return nil
}

// checkFarmem: speedup is pages latency ÷ objects latency; the page
// swapper's latency and traffic do not depend on object size; objects
// traffic never falls as object size grows.
func checkFarmem(t *core.Table) error {
	p := parser{t: t}
	var pagesLat, pagesTraffic, lastSize, lastTraffic float64
	for i, r := range t.Rows {
		size := p.num(r, "object size")
		pl, ol := p.num(r, "pages lat (cyc)"), p.num(r, "objects lat (cyc)")
		sp := p.num(r, "speedup")
		pt, ot := p.num(r, "pages traffic (MB)"), p.num(r, "objects traffic (MB)")
		if p.err != nil {
			return p.err
		}
		// Latencies print to 0.1 cycle, the speedup to 0.01.
		want := pl / ol
		if tol := 0.005 + want*(0.05/pl+0.05/ol) + 1e-9; math.Abs(sp-want) > tol {
			return fmt.Errorf("farmem %gB: speedup %g, want %g/%g = %.4f", size, sp, pl, ol, want)
		}
		if i > 0 {
			if pl != pagesLat || pt != pagesTraffic {
				return fmt.Errorf("farmem %gB: pages lat %g traffic %g, want %g and %g as at every size", size, pl, pt, pagesLat, pagesTraffic)
			}
			if size <= lastSize {
				return fmt.Errorf("farmem: object sizes not ascending (%g after %g)", size, lastSize)
			}
			if ot < lastTraffic {
				return fmt.Errorf("farmem %gB: objects traffic %g fell from %g", size, ot, lastTraffic)
			}
		}
		pagesLat, pagesTraffic, lastSize, lastTraffic = pl, pt, size, ot
	}
	if len(t.Rows) < 2 {
		return fmt.Errorf("farmem: %d rows, want several object sizes", len(t.Rows))
	}
	return nil
}

// checkSameBytes: a result served again is the bytes first served.
func checkSameBytes(id string, first, got []byte) error {
	if string(first) != string(got) {
		return fmt.Errorf("job %s: %d result bytes differ from the %d first served", id, len(got), len(first))
	}
	return nil
}

// render is a table set as interweave prints it.
func render(tables []*core.Table) []byte {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// parser reads table cells by column name, keeping the first error.
type parser struct {
	t   *core.Table
	err error
}

func (p *parser) str(row []string, column string) string {
	i := slices.Index(p.t.Header, column)
	if i < 0 || i >= len(row) {
		if p.err == nil {
			p.err = fmt.Errorf("%s: no column %q in %v", p.t.ID, column, p.t.Header)
		}
		return ""
	}
	return strings.TrimSpace(row[i])
}

// num parses a numeric cell, dropping a unit suffix (µs, %, x, B).
func (p *parser) num(row []string, column string) float64 {
	s := p.str(row, column)
	if p.err != nil {
		return 0
	}
	for _, unit := range []string{"µs", "%", "x", "B"} {
		s = strings.TrimSuffix(s, unit)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.err = fmt.Errorf("%s column %q: %w", p.t.ID, column, err)
	}
	return v
}
