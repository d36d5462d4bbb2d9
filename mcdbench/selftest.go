package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// selftestMain checks that the benchmark catches what it exists to
// catch, by running this binary with faults injected from the
// benchmark's side:
//
//   - slow-sim doubles the simulation work of every cold sweep; the
//     comparison must report ops_per_s on cold-matrix as a regression
//     and leave warm-render, which simulates nothing, within bounds;
//   - corrupt damages one output before its check; every workload must
//     then report a failure.
func selftestMain(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		return 2
	}
	root := filepath.Join(".bench_out", "selftest")
	if err := os.RemoveAll(root); err != nil {
		fmt.Fprintln(os.Stderr, "mcdbench:", err)
		return 2
	}
	const seconds = "6"
	run := func(out, wl, inject string, seed int) (result, error) {
		cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.Itoa(seed), "--seconds", seconds, "--trace", "0", "--out", out, "--inject", inject)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			return result{}, fmt.Errorf("%s %s seed %d: %w", wl, inject, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		err := json.Unmarshal(lines[len(lines)-1], &res)
		return res, err
	}
	pass := true
	report := func(ok bool, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict, pass = "FAIL", false
		}
		fmt.Printf("%s  %s\n", verdict, fmt.Sprintf(format, args...))
	}

	base, slow := filepath.Join(root, "base"), filepath.Join(root, "slow-sim")
	for seed := 0; seed < 3; seed++ {
		for _, wl := range []string{"cold-matrix", "warm-render"} {
			for _, side := range [][2]string{{base, ""}, {slow, "slow-sim"}} {
				if _, err := run(side[0], wl, side[1], seed); err != nil {
					report(false, "%v", err)
					return 1
				}
			}
		}
	}
	for _, wl := range []string{"cold-matrix", "warm-render"} {
		vs, err := compareLogs(filepath.Join(base, "results", wl+".jsonl"), filepath.Join(slow, "results", wl+".jsonl"), bounds)
		if err != nil {
			report(false, "compare %s: %v", wl, err)
			continue
		}
		for _, v := range vs {
			if v.Metric != "ops_per_s" {
				continue
			}
			if wl == "cold-matrix" {
				report(v.Status == "regression", "slow-sim on cold-matrix: ops_per_s %s (worse by %.1f%%, bound %.0f%%)", v.Status, 100*v.Change, 100*v.Bound)
			} else {
				report(v.Status != "regression", "slow-sim on warm-render: ops_per_s %s (worse by %.1f%%, bound %.0f%%)", v.Status, 100*v.Change, 100*v.Bound)
			}
		}
	}
	for _, w := range workloads {
		res, err := run(filepath.Join(root, "corrupt"), w.name, "corrupt", 0)
		if err != nil {
			report(false, "%v", err)
			continue
		}
		report(res.Failed > 0 && !res.Correct, "corrupt on %s: failed %d of %d, correct=%v", w.name, res.Failed, res.Attempted, res.Correct)
	}
	if !pass {
		fmt.Println("selftest: FAILED")
		return 1
	}
	fmt.Println("selftest: all checks passed")
	return 0
}
