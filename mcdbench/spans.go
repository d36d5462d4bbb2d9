package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// perLayer lists the metrics every traced run reports. A layer the
// workload does not exercise reports 0 (see METRICS.md for which
// workload moves which metric).
var perLayer = []struct{ name, unit string }{
	{"trace.gen_ns_per_inst", "ns"},
	{"trace.replay_ns_per_inst", "ns"},
	{"trace.recorded_mb", "MB"},
	{"mcd.run_s", "s"},
	{"mcd.ns_per_sim_inst", "ns"},
	{"mcd.ns_per_slow_edge", "ns"},
	{"mcd.slow_edges", "count"},
	{"mcd.skipped_edges", "count"},
	{"mcd.skip_share", "share"},
	{"mcd.allocs_per_cell", "count"},
	{"mcd.alloc_mb_per_cell", "MB"},
	{"mcd.sim_cycles", "cycles"},
	{"mcd.ipc", "insts/cycle"},
	{"mcd.sim_energy_saving_pct", "%"},
	{"mcd.sim_perf_degradation_pct", "%"},
	{"control.observe_ns", "ns"},
	{"spectrum.classify_ms", "ms"},
	{"diskcache.get_ms", "ms"},
	{"diskcache.entry_kb", "KB"},
	{"diskcache.put_ms", "ms"},
	{"diskcache.hit_share", "share"},
	{"experiment.render_ms", "ms"},
	{"experiment.mem_hit_share", "share"},
	{"experiment.pool_efficiency", "share"},
	{"experiment.simulations", "count"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.follower_share", "share"},
	{"serve.shed_share", "share"},
	{"serve.resp_kb", "KB"},
	{"chip.run_s", "s"},
	{"chip.pool_speedup", "x"},
	{"chip.epochs", "count"},
	{"governor.cap_error_pct", "%"},
	{"bench.tracing_overhead_pct", "%"},
	{"bench.attributed_share", "share"},
}

// span is one timed call into a layer, made from the benchmark's own
// code. Times are nanoseconds since the tracer started. Op groups the
// spans of one workload operation; probe spans (per-call measurements
// outside the workload's operations) carry Op -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name up to its first dot ("mcd.RunContext" → mcd).
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so one code path serves traced and untraced
// operations.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, op int, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// byName sums the durations and counts the spans with the given name.
func (t *tracer) byName(name string) (total time.Duration, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// layerRow is one line of the traced run's layer table: the layer's
// self time (span time not covered by child spans), its call count,
// and the share of the untraced wall time (times the worker count) it
// accounts for. Basis says whether the row comes from the operations'
// own spans or from per-call probe spans multiplied by the call counts
// the program's counters report.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Calls  int     `json:"calls"`
	Share  float64 `json:"share_of_untraced_wall"`
	Basis  string  `json:"basis"`
}

// layerTable attributes the operation spans (Op >= 0) to layers.
// capacity is workers × the untraced wall time of the same operations.
func layerTable(t *tracer, capacity time.Duration) []layerRow {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Op >= 0 && s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		r := rows[s.layer()]
		if r == nil {
			r = &layerRow{Layer: s.layer(), Basis: "spans"}
			rows[s.layer()] = r
		}
		r.SelfMS += float64(s.dur()-child[s.ID]) / 1e6
		r.Calls++
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.Share = r.SelfMS / (float64(capacity) / 1e6)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// attributedShare sums the layer shares of a table.
func attributedShare(rows []layerRow) float64 {
	total := 0.0
	for _, r := range rows {
		total += r.Share
	}
	return total
}

// writeTrace writes the run's spans (one JSON object per line) and its
// layer table under <out>/spans/, and prints the table to stderr.
func writeTrace(c config, rep *report) error {
	dir := filepath.Join(c.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	f, err := os.Create(base + ".jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if rep.spans != nil {
		for _, s := range rep.spans.spans {
			fmt.Fprintln(w, mustJSON(s))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %12s %8s %10s  %s\n", "layer", "self_ms", "calls", "wall_share", "basis")
	for _, r := range rep.layers {
		fmt.Fprintf(&sb, "%-12s %12.2f %8d %10.3f  %s\n", r.Layer, r.SelfMS, r.Calls, r.Share, r.Basis)
	}
	fmt.Fprintf(&sb, "attributed share of untraced wall: %.3f; tracing overhead: %.2f%%\n",
		rep.metrics["bench.attributed_share"].Value, rep.metrics["bench.tracing_overhead_pct"].Value)
	fmt.Fprint(os.Stderr, sb.String())
	return os.WriteFile(base+"-layers.txt", []byte(sb.String()), 0o644)
}

//go:embed *.go go.mod
var sources embed.FS

// sourcesDigest identifies the benchmark's own code, so result sets
// from different benchmark versions are never compared.
func sourcesDigest() string {
	h := sha256.New()
	names, _ := sources.ReadDir(".")
	for _, e := range names {
		f, err := sources.Open(e.Name())
		if err != nil {
			continue
		}
		io.WriteString(h, e.Name())
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
