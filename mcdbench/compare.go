package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) (map[string]bound, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// readLog loads the untraced, fault-free runs of a result log.
func readLog(path string) ([]logEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e logEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !e.Trace {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

// verdict is one metric of one workload compared across two result
// sets.
type verdict struct {
	Workload, Metric string
	Old, New         float64 // medians
	Change           float64 // (new-old)/old, positive = worse
	Spread           float64 // the old set's quartile distance / median
	Bound            float64
	Status           string // ok, improved, regression, unresolved
}

// compareLogs compares two result logs of one workload metric by
// metric. It refuses (error) when the runs were not all measured on
// the same machine, toolchain and benchmark code.
func compareLogs(oldPath, newPath string, bounds map[string]bound) ([]verdict, error) {
	olds, err := readLog(oldPath)
	if err != nil {
		return nil, err
	}
	news, err := readLog(newPath)
	if err != nil {
		return nil, err
	}
	if len(olds) == 0 || len(news) == 0 {
		return nil, fmt.Errorf("no untraced runs to compare")
	}
	ref := olds[0]
	for _, e := range append(olds[1:], news...) {
		if d := sameMachine(ref.Context, e.Context); d != "" {
			return nil, fmt.Errorf("refusing to compare runs from different contexts: %s", d)
		}
		if e.Workload != ref.Workload || e.Seconds != ref.Seconds {
			return nil, fmt.Errorf("refusing to compare %s/%gs with %s/%gs", ref.Workload, ref.Seconds, e.Workload, e.Seconds)
		}
	}
	var names []string
	for n := range bounds {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []verdict
	for _, n := range names {
		b := bounds[n]
		ov, nv := values(olds, n), values(news, n)
		if len(ov) == 0 || len(nv) == 0 {
			continue
		}
		v := verdict{Workload: ref.Workload, Metric: n, Old: median(ov), New: median(nv), Bound: b.Bound}
		v.Change = (v.New - v.Old) / v.Old
		if b.Better == "higher" {
			v.Change = -v.Change
		}
		if len(ov) >= 2 {
			v.Spread = (quantile(ov, 0.75) - quantile(ov, 0.25)) / v.Old
		}
		switch {
		case v.Change > b.Bound:
			v.Status = "regression"
		case v.Spread > b.Bound:
			v.Status = "unresolved"
		case v.Change < -b.Bound:
			v.Status = "improved"
		default:
			v.Status = "ok"
		}
		out = append(out, v)
	}
	return out, nil
}

func values(es []logEntry, name string) []float64 {
	var out []float64
	for _, e := range es {
		if m, ok := e.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain prints the comparison of two result logs. Exit status: 0
// no regression, 1 a regression or a failed run in the new set, 2 the
// logs cannot be compared.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: mcdbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		return 2
	}
	vs, err := compareLogs(args[0], args[1], bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		return 2
	}
	status := 0
	fmt.Printf("%-12s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse_by", "spread", "bound", "verdict")
	for _, v := range vs {
		fmt.Printf("%-12s %-18s %14.6g %14.6g %8.2f%% %7.2f%% %6.0f%%  %s\n", v.Workload, v.Metric, v.Old, v.New, 100*v.Change, 100*v.Spread, 100*v.Bound, v.Status)
		if v.Status == "regression" {
			status = 1
		}
	}
	news, _ := readLog(args[1])
	for _, e := range news {
		if !e.Result.Correct {
			fmt.Printf("run seed %d of the new set failed %d of %d operations\n", e.Seed, e.Result.Failed, e.Result.Attempted)
			status = 1
		}
	}
	return status
}
