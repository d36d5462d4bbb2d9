// Command mcdbench is the repository benchmark: four workloads that
// cover every path a user of the simulator waits on (a cold matrix
// sweep, a warm re-render from the disk cache, mcdserve under mixed
// traffic, and a power-capped N-core chip run), each checking its
// outputs, plus a traced mode that times each layer's public entry
// points. See METRICS.md for the workloads, metrics and layer map.
//
// Usage:
//
//	mcdbench --workload NAME --seed N --seconds S --trace 0|1
//	mcdbench compare OLD.jsonl NEW.jsonl
//	mcdbench selftest
//	mcdbench digests
//
// The last line of standard output is the run's result as one JSON
// object; lines before it starting with '#' give each metric with its
// sample count. Every run also appends its result and machine context
// to .bench_out/results/<workload>.jsonl, which compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run measured. samples holds the sample
// count behind each latency metric; failures describes the first few
// failed operations.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	samples           map[string]int
	failures          []string
	layers            []layerRow
	spans             *tracer
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check records a pass/fail output check as one attempted operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	inject   string
	out      string
}

// simSeed maps the workload seed onto the harness seed space (>= 1):
// workload seed 0 is harness seed 1, the CLI default, whose outputs
// have committed digests.
func (c config) simSeed() int64 { return int64(uint64(c.seed)%(1<<40)) + 1 }

// defaultSeed is the workload seed whose outputs are checked against
// the digests in digests.go.
const defaultSeed = 0

// workload is one benchmark scenario.
type workload struct {
	name string
	why  string
	run  func(c config) (*report, error)
}

var workloads = []workload{
	{"cold-matrix", "the experiments -all sweep users wait on: every cell simulated, traces recorded, results written to an empty disk cache", runColdMatrix},
	{"warm-render", "re-render after process death: artifacts decode from a full disk cache and classify, with zero simulation", runWarmRender},
	{"serve-mixed", "mcdserve under closed-loop clients: warm cheap renders set p50, warm classifying and cold renders set the tail", runServeMixed},
	{"chip-capped", "the 4-core chip under the integral-gain governor at a binding budget: the only path through the epoch-barrier pool", runChipCapped},
}

// endToEnd lists the metrics every untraced run reports, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"retained_heap_mb", "MB"},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "selftest":
			os.Exit(selftestMain(os.Args[2:]))
		case "digests":
			os.Exit(digestsMain())
		}
	}
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload to run: cold-matrix, warm-render, serve-mixed, chip-capped")
	flag.Int64Var(&c.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 15, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&c.inject, "inject", "", "self-test fault: slow-sim (doubles simulation work from the benchmark side) or corrupt (damages one output before its check)")
	flag.StringVar(&c.out, "out", ".bench_out", "directory for result logs, span files and scratch cache dirs")
	flag.Parse()
	c.trace = traceFlag == 1
	if c.inject != "" && c.inject != "slow-sim" && c.inject != "corrupt" {
		fatalf("unknown -inject %q", c.inject)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == c.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatalf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	ctx := machine()
	fmt.Printf("# context %s\n", mustJSON(ctx))

	rep, err := wl.run(c)
	if err != nil {
		fatalf("%s: %v", c.workload, err)
	}
	res := finish(c, rep)
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "mcdbench: FAILED: %s\n", f)
	}
	if c.trace {
		if err := writeTrace(c, rep); err != nil {
			fatalf("writing spans: %v", err)
		}
	}
	if err := appendLog(c, ctx, res, rep); err != nil {
		fatalf("writing result log: %v", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("# %-32s %14.6g %s", n, m.Value, m.Unit)
		if s, ok := rep.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Println(line)
	}
	fmt.Printf("# attempted %d, failed %d, failed_share %.6g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Println(mustJSON(res))
}

// finish turns a report into the result line, checking that the run
// reported exactly the metric set its mode promises.
func finish(c config, rep *report) result {
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		rep.failures = append(rep.failures, "no operation completed")
	}
	if c.trace {
		for _, pl := range perLayer {
			m, ok := rep.metrics[pl.name]
			if !ok {
				m = metric{0, pl.unit}
			}
			res.Metrics[pl.name] = m
		}
	} else {
		for _, e := range endToEnd {
			m, ok := rep.metrics[e.name]
			if !ok {
				fatalf("%s did not report %s", c.workload, e.name)
			}
			res.Metrics[e.name] = m
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// machineContext identifies what a result was measured on. Two result
// sets compare only when everything but Commit matches.
type machineContext struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Bench      string `json:"bench_sources"`
	Commit     string `json:"commit"`
}

func machine() machineContext {
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("MCDBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return machineContext{
		CPU:        cpu,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Bench:      sourcesDigest(),
		Commit:     commit,
	}
}

// sameMachine reports the first context field that differs, or "".
func sameMachine(a, b machineContext) string {
	switch {
	case a.CPU != b.CPU:
		return fmt.Sprintf("cpu %q vs %q", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion)
	case a.Bench != b.Bench:
		return fmt.Sprintf("benchmark sources %s vs %s", a.Bench, b.Bench)
	}
	return ""
}

// logEntry is one line of a result log.
type logEntry struct {
	Context  machineContext `json:"context"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Inject   string         `json:"inject,omitempty"`
	Samples  map[string]int `json:"samples,omitempty"`
	Result   result         `json:"result"`
}

func appendLog(c config, ctx machineContext, res result, rep *report) error {
	dir := filepath.Join(c.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, c.workload+".jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	e := logEntry{Context: ctx, Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Inject: c.inject, Samples: rep.samples, Result: res}
	if _, err := fmt.Fprintln(f, mustJSON(e)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// retainedHeapMB is the live heap after full collections (two, so
// that sync.Pool victim caches are emptied too).
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setCommon fills the end-to-end metrics every workload shares. rates
// are throughputs of equal shares of the run's work (whole sweeps,
// whole operation cycles, or equal time slices): their median is
// ops_per_s, so a burst of host noise in one share does not move it.
// latencies are per-operation times in seconds; tailQ is the tail
// percentile this workload reports (0.90 or 0.99).
func setCommon(r *report, setups, rates, latencies []float64, tailQ float64) {
	r.set("setup_s", median(setups), "s")
	r.samples["setup_s"] = len(setups)
	r.set("ops_per_s", median(rates), "ops/s")
	r.samples["ops_per_s"] = len(rates)
	r.set("op_p50_ms", 1e3*quantile(latencies, 0.5), "ms")
	r.set("op_tail_ms", 1e3*quantile(latencies, tailQ), "ms")
	r.samples["op_p50_ms"] = len(latencies)
	r.samples["op_tail_ms"] = len(latencies)
	if float64(len(latencies))*(1-tailQ) < 10-1e-9 {
		fmt.Fprintf(os.Stderr, "mcdbench: warning: %d samples leave fewer than ten beyond p%g\n", len(latencies), 100*tailQ)
	}
}

// groupRates splits sequential operation latencies (seconds) into
// consecutive groups of size and returns each full group's throughput.
func groupRates(latencies []float64, size int) []float64 {
	var out []float64
	for i := 0; i+size <= len(latencies); i += size {
		sum := 0.0
		for _, l := range latencies[i : i+size] {
			sum += l
		}
		out = append(out, float64(size)/sum)
	}
	return out
}

// window is a run's measurement interval: it closes after the
// configured seconds once minOps operations have completed, and in any
// case after three times the configured seconds.
type window struct {
	start        time.Time
	soft, hard   time.Time
	minOps, done int
}

func newWindow(seconds float64, minOps int) *window {
	now := time.Now()
	d := time.Duration(seconds * float64(time.Second))
	return &window{start: now, soft: now.Add(d), hard: now.Add(3 * d), minOps: minOps}
}

// open reports whether another operation should start.
func (w *window) open() bool {
	now := time.Now()
	return now.Before(w.hard) && (now.Before(w.soft) || w.done < w.minOps)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile (numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mustJSON(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(blob)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcdbench: "+format+"\n", args...)
	os.Exit(2)
}
