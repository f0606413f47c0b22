package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// finishTrace ends a run: it records the runtime's per-job counts on
// the extra line and, in a traced run, writes the spans out and
// charges the timed phase's CPU profile to the repo's modules.
func (b *bench) finishTrace() error {
	for name, v := range b.runtimePerJob() {
		b.extra[name] = v
	}
	b.extra["steal_s"] = stealSeconds() - b.host.stealAt
	b.host.stealSeconds = b.extra["steal_s"]
	if !b.traced {
		return nil
	}
	if err := b.writeSpans(); err != nil {
		return err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", b.profilePath()).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	b.cpu, err = chargeModules(out)
	return err
}

// chargeModules reads `go tool pprof -traces` output and charges each
// sample to the innermost repro/internal/* frame on its stack, so that
// runtime and library code (container/heap, maps, malloc, net/http,
// encoding/json) counts to the module that called it. Samples with no
// such frame, and modules outside layerModules, count as "other".
// The result is CPU milliseconds per module.
func chargeModules(traces []byte) (map[string]float64, error) {
	cpu := map[string]float64{}
	var (
		value   time.Duration
		charged bool
	)
	flush := func() {
		if value > 0 && !charged {
			cpu["other"] += ms(value)
		}
		value, charged = 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if value == 0 {
			// The first frame line of a trace carries the sample value;
			// label lines ("key:  value") precede it.
			if strings.HasSuffix(frame, ":") || len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(frame)
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", frame, err)
			}
			value, frame = d, fields[1]
		}
		if charged {
			continue
		}
		if mod, ok := strings.CutPrefix(frame, "repro/internal/"); ok {
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			if !slices.Contains(layerModules, mod) {
				mod = "other"
			}
			cpu[mod] += ms(value)
			charged = true
		}
	}
	flush()
	return cpu, sc.Err()
}
