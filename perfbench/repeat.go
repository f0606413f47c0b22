package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times, each as a child process of
// this binary with its own seed, and prints for every metric of the
// result object and of the extra line its median, quartiles and
// spread (the distance between the quartiles as a share of the
// median). This is the evidence the bounds in BENCHMARK.json rest on.
func repeatRuns(w io.Writer, workload string, seed uint64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := range n {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		res, extra, err := parseRun(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run not correct", s)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		for name, v := range extra {
			values["extra."+name] = append(values["extra."+name], v)
		}
		fmt.Fprintf(w, "run %d seed %d: failed/attempted %d/%d steal_s %.2f", i+1, s, res.Failed, res.Attempted, extra["steal_s"])
		for _, name := range sortedKeys(res.Metrics) {
			fmt.Fprintf(w, " %s %.4g", name, res.Metrics[name].Value)
		}
		fmt.Fprintln(w)
	}
	names := sortedKeys(values)
	fmt.Fprintf(w, "%s, %d runs, seeds %d..%d, %ds; failed/attempted per run: %s\n",
		workload, n, seed, seed+uint64(n)-1, seconds, strings.Join(shares, " "))
	fmt.Fprintf(w, "%-32s %-6s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := values[name]
		med := median(v)
		q1, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(w, "%-32s %-6s %12.4f %12.4f %12.4f %7.1f%%\n", name, units[name], med, q1, q3, 100*spread)
	}
	return nil
}

// runResult is the last line of a run.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parseRun reads a run's result object (its last line) and extra line.
func parseRun(out []byte) (runResult, map[string]float64, error) {
	var res runResult
	extra := map[string]float64{}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "extra: "); ok {
			if err := json.Unmarshal([]byte(rest), &extra); err != nil {
				return res, nil, fmt.Errorf("extra line: %w", err)
			}
		}
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, nil, fmt.Errorf("result line: %w", err)
	}
	return res, extra, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
