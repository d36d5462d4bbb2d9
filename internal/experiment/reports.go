package experiment

import (
	"fmt"
	"sort"
	"strings"

	"mcddvfs/internal/baselines"
	"mcddvfs/internal/control"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/power"
	"mcddvfs/internal/spectrum"
	"mcddvfs/internal/stability"
	"mcddvfs/internal/trace"
)

// Table1 renders the simulation-parameter summary (paper Table 1) from
// the live machine configuration, so the report can never drift from
// the code.
func Table1(opt Options) Report {
	cfg := opt.machine()
	r := cfg.Range
	ctl := control.DefaultConfig(isa.DomainInt)
	lines := []string{
		fmt.Sprintf("%-38s %s", "Domain frequency range", fmt.Sprintf("%g MHz - %g MHz", r.MinMHz, r.MaxMHz)),
		fmt.Sprintf("%-38s %s", "Domain voltage range", fmt.Sprintf("%.2f V - %.2f V", r.MinV, r.MaxV)),
		fmt.Sprintf("%-38s %s", "Frequency/voltage change speed", fmt.Sprintf("%v/MHz, %v per %.2f mV step", cfg.Transitions.FreqSlew, cfg.Transitions.VoltSlewPerStep, r.StepV()*1000)),
		fmt.Sprintf("%-38s %g MHz", "Signal sampling rate", cfg.SamplingMHz),
		fmt.Sprintf("%-38s Tl0 = %g, Tm0 = %g (sampling periods)", "Basic time delays", ctl.TL0, ctl.TM0),
		fmt.Sprintf("%-38s %.2f MHz / %.2f mV (%d steps)", "Step size (f/V)", r.StepMHz(), r.StepV()*1000, r.Steps),
		fmt.Sprintf("%-38s %d INT, %d FP, %d LS", "Reference queue point", control.DefaultConfig(isa.DomainInt).QRef, control.DefaultConfig(isa.DomainFP).QRef, control.DefaultConfig(isa.DomainLS).QRef),
		fmt.Sprintf("%-38s ±%d level, ±%d slope", "Deviation window (DW)", ctl.DWLevel, ctl.DWSlope),
		fmt.Sprintf("%-38s ±%g ps, normally distributed", "Domain clock jitter", cfg.JitterPS),
		fmt.Sprintf("%-38s %g ps", "Inter-domain synchronization window", cfg.SyncWindowPS),
		fmt.Sprintf("%-38s %d/%d/%d", "Decode/Issue/Retire width", cfg.DecodeWidth, cfg.IssueWidth, cfg.RetireWidth),
		fmt.Sprintf("%-38s %d KB %d-way / %d KB %d-way", "L1 data / instruction cache", cfg.Cache.L1DSize>>10, cfg.Cache.L1DWays, cfg.Cache.L1ISize>>10, cfg.Cache.L1IWays),
		fmt.Sprintf("%-38s %d MB, %d-way", "L2 unified cache", cfg.Cache.L2Size>>20, cfg.Cache.L2Ways),
		fmt.Sprintf("%-38s %d cycles L1, %d cycles L2", "Cache access time", cfg.Cache.L1Latency, cfg.Cache.L2Latency),
		fmt.Sprintf("%-38s %g ns first chunk", "Memory access latency", cfg.Cache.MemFirstChunkNS),
		fmt.Sprintf("%-38s %d + %d mult/div", "Integer ALUs", cfg.IntALUs, cfg.IntMultDiv),
		fmt.Sprintf("%-38s %d + %d mult/div/sqrt", "Floating-point ALUs", cfg.FPALUs, cfg.FPMultDiv),
		fmt.Sprintf("%-38s %d INT, %d FP, %d LS", "Issue queue size", cfg.IntQSize, cfg.FPQSize, cfg.LSQueue),
		fmt.Sprintf("%-38s %d", "Reorder buffer size", cfg.ROBSize),
		fmt.Sprintf("%-38s %d", "LS retire buffer size", cfg.LSQSize),
		fmt.Sprintf("%-38s %d INT, %d FP", "Physical register file size", cfg.PhysInt, cfg.PhysFP),
	}
	return Report{
		ID:    "table1",
		Title: "Summary of all simulation parameters",
		Lines: lines,
		Notes: []string{"matches paper Table 1; Tl0 follows the running text (8) over the garbled table entry"},
	}
}

// BenchClass is one benchmark's Table-2 row.
type BenchClass struct {
	Name       string
	Suite      string
	IPC        float64
	ShortShare float64 // max over the three queues
	Fast       bool
}

// ClassifyBenchmarks runs the no-DVFS baseline for each benchmark and
// applies the Section-5.2 spectral classifier to its queue-occupancy
// series (the maximum short-wavelength share across the three queues
// decides, since fast variation in any domain defeats a fixed-interval
// controller there).
func ClassifyBenchmarks(opt Options) ([]BenchClass, error) {
	opt = opt.withDefaults()
	out := make([]BenchClass, len(opt.Benchmarks))
	err := firstError(forEachParallel(opt.ctx(), len(opt.Benchmarks), func(i int) error {
		b := opt.Benchmarks[i]
		res, err := RunOne(b, SchemeNone, opt)
		if err != nil {
			return err
		}
		prof, err := trace.ByName(b)
		if err != nil {
			return err
		}
		bc := BenchClass{Name: b, Suite: prof.Suite, IPC: res.IPC}
		var series [][]float64
		for _, dom := range []string{mcd.NameInt, mcd.NameFP, mcd.NameLS} {
			if samples := res.QueueSamples[dom]; len(samples) >= 64 {
				series = append(series, samples)
			}
		}
		// The queues are sampled together, so their equal-length series
		// share one FFT plan and taper set.
		cls, err := spectrum.ClassifyAll(series, spectrum.DefaultIntervalSamples, spectrum.DefaultFastShareThreshold)
		if err != nil {
			return err
		}
		for _, cl := range cls {
			// Queues that barely move carry no exploitable signal.
			if cl.TotalVariance < 0.5 {
				continue
			}
			if cl.ShortShare > bc.ShortShare {
				bc.ShortShare = cl.ShortShare
			}
		}
		bc.Fast = bc.ShortShare > spectrum.DefaultFastShareThreshold
		out[i] = bc
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FastGroup returns the benchmarks the classifier marks fast-varying.
func FastGroup(classes []BenchClass) []string {
	var out []string
	for _, c := range classes {
		if c.Fast {
			out = append(out, c.Name)
		}
	}
	return out
}

// Table2 renders the benchmark suite with the workload-variability
// classification (paper Table 2, reconstructed; the classification
// methodology is Section 5.2's).
func Table2(opt Options) (Report, []BenchClass, error) {
	classes, err := ClassifyBenchmarks(opt)
	if err != nil {
		return Report{}, nil, err
	}
	lines := []string{fmt.Sprintf("%-14s %-11s %6s %12s %s", "benchmark", "suite", "IPC", "short-share", "class")}
	for _, c := range classes {
		class := "slow"
		if c.Fast {
			class = "FAST"
		}
		lines = append(lines, fmt.Sprintf("%-14s %-11s %6.2f %12.3f %s", c.Name, c.Suite, c.IPC, c.ShortShare, class))
	}
	return Report{
		ID:    "table2",
		Title: "Benchmark suite and workload-variability classification",
		Lines: lines,
		Notes: []string{
			"benchmark list reconstructed: 6 MediaBench + 6 SPECint + 5 SPECfp as in [4,9,23]",
			"short-share = occupancy variance at wavelengths under the fixed interval (2500 sampling periods)",
		},
	}, classes, nil
}

// Figure7 renders the FP-domain frequency trajectory of epic_decode
// under the adaptive controller.
func Figure7(opt Options) (Report, error) {
	opt = opt.withDefaults()
	res, err := RunOne("epic_decode", SchemeAdaptive, opt)
	if err != nil {
		return Report{}, err
	}
	tr := res.FreqTrace[mcd.NameFP]
	lines := []string{fmt.Sprintf("%12s %14s", "insts", "rel. freq")}
	step := len(tr)/60 + 1
	for i := 0; i < len(tr); i += step {
		rel := tr[i].MHz / opt.machine().Range.MaxMHz
		lines = append(lines, fmt.Sprintf("%12d %14.3f %s", tr[i].Insts, rel, bar(rel, 40)))
	}
	return Report{
		ID:    "fig7",
		Title: "Adaptive frequency settings, FP domain, epic_decode",
		Lines: lines,
		Notes: []string{
			"paper narrative: quick drop to f_min; modest recovery near 28% of the run; empty again; dramatic rise to f_max near 82%",
		},
	}, nil
}

// Figure8 renders the variance spectrum of the INT queue occupancy for
// epic_decode (multitaper estimate, variance density per wavelength).
func Figure8(opt Options) (Report, error) {
	opt = opt.withDefaults()
	res, err := RunOne("epic_decode", SchemeNone, opt)
	if err != nil {
		return Report{}, err
	}
	samples := res.QueueSamples[mcd.NameInt]
	sp, err := spectrum.Multitaper(samples, 5)
	if err != nil {
		return Report{}, err
	}
	// Aggregate the spectrum into log-spaced wavelength buckets.
	edges := []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536}
	lines := []string{fmt.Sprintf("%22s %14s", "wavelength (samples)", "variance")}
	maxV := 0.0
	vars := make([]float64, len(edges)-1)
	for i := 0; i+1 < len(edges); i++ {
		vars[i] = sp.BandVariance(edges[i], edges[i+1])
		if vars[i] > maxV {
			maxV = vars[i]
		}
	}
	for i := 0; i+1 < len(edges); i++ {
		rel := 0.0
		if maxV > 0 {
			rel = vars[i] / maxV
		}
		marker := " "
		if edges[i+1] <= spectrum.DefaultIntervalSamples {
			marker = "*" // inside the fast-variation region (dotted line)
		}
		lines = append(lines, fmt.Sprintf("%9.0f - %-10.0f %14.4g %s %s", edges[i], edges[i+1], vars[i], marker, bar(rel, 40)))
	}
	share := sp.ShortWavelengthShare(spectrum.DefaultIntervalSamples)
	lines = append(lines, fmt.Sprintf("short-wavelength share (< %d samples): %.3f", spectrum.DefaultIntervalSamples, share))
	return Report{
		ID:    "fig8",
		Title: "Variance spectrum, INT queue occupancy, epic_decode",
		Lines: lines,
		Notes: []string{"* marks wavelengths inside the fast-variation region (paper's dotted line)"},
	}, nil
}

// Figure9 renders per-benchmark energy savings for the three schemes.
func (m *Matrix) Figure9() Report {
	return m.figure("fig9", "Energy savings vs no-DVFS baseline",
		func(sav, perf, edp float64) float64 { return sav })
}

// Figure10 renders per-benchmark performance degradation.
func (m *Matrix) Figure10() Report {
	return m.figure("fig10", "Performance degradation vs no-DVFS baseline",
		func(sav, perf, edp float64) float64 { return perf })
}

// Figure11 renders the EDP improvement on the fast-variation group,
// where the paper reports the adaptive scheme's decisive win.
func (m *Matrix) Figure11(fastGroup []string) Report {
	sub := &Matrix{Options: m.Options, Benchmarks: fastGroup, Schemes: m.Schemes, Results: m.Results}
	rep := sub.figure("fig11", "Energy-delay-product improvement, fast-variation group",
		func(sav, perf, edp float64) float64 { return edp })
	ad := sub.MeanComparison(SchemeAdaptive, nil).EDPImprovement
	pid := sub.MeanComparison(SchemePID, nil).EDPImprovement
	att := sub.MeanComparison(SchemeAttackDecay, nil).EDPImprovement
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("adaptive %.2f%% vs pid %.2f%% vs attack/decay %.2f%% mean EDP improvement", 100*ad, 100*pid, 100*att),
		"paper (reconstructed): adaptive ≈8%% better than PID, ≈3x better than attack/decay on this group")
	return rep
}

// comparisonSelector picks one of the three metrics for a figure.
type comparisonSelector func(sav, perf, edp float64) float64

func (m *Matrix) figure(id, title string, sel comparisonSelector) Report {
	schemes := m.schemes()
	lines := []string{figureHeader(schemes)}
	skipped := 0
	for _, b := range m.Benchmarks {
		if !rowComplete(schemes, m.Results[b]) {
			skipped++
			continue
		}
		lines = append(lines, figureRow(b, schemes, m.Results[b], sel))
	}
	lines = append(lines, m.figureAverage(schemes, sel))
	rep := Report{ID: id, Title: title, Lines: lines}
	if n := figureSkippedNote(skipped); n != "" {
		rep.Notes = append(rep.Notes, n)
	}
	return rep
}

// The helpers below are shared between the batch renderer above and
// the incremental FigureStream (stream.go), which is what keeps a
// row-by-row render byte-identical to an end-of-sweep one.

// figureHeader renders a figure's column header line.
func figureHeader(schemes []Scheme) string {
	header := fmt.Sprintf("%-14s", "benchmark")
	for _, s := range schemes {
		header += fmt.Sprintf(" %12s", s)
	}
	return header
}

// rowComplete reports whether a row snapshot holds the baseline and
// every scheme column (the per-row form of Matrix.Complete).
func rowComplete(schemes []Scheme, row map[Scheme]*mcd.Result) bool {
	if row[SchemeNone] == nil {
		return false
	}
	for _, s := range schemes {
		if row[s] == nil {
			return false
		}
	}
	return true
}

// figureRow renders one complete benchmark row.
func figureRow(bench string, schemes []Scheme, row map[Scheme]*mcd.Result, sel comparisonSelector) string {
	base := row[SchemeNone]
	line := fmt.Sprintf("%-14s", bench)
	for _, s := range schemes {
		c := power.Compare(base.Metrics, row[s].Metrics)
		line += fmt.Sprintf(" %11.2f%%", 100*sel(c.EnergySaving, c.PerfDegradation, c.EDPImprovement))
	}
	return line
}

// figureAverage renders the AVERAGE row.
func (m *Matrix) figureAverage(schemes []Scheme, sel comparisonSelector) string {
	avg := fmt.Sprintf("%-14s", "AVERAGE")
	for _, s := range schemes {
		c := m.MeanComparison(s, nil)
		avg += fmt.Sprintf(" %11.2f%%", 100*sel(c.EnergySaving, c.PerfDegradation, c.EDPImprovement))
	}
	return avg
}

// figureSkippedNote renders the omitted-rows note ("" when none).
func figureSkippedNote(skipped int) string {
	if skipped == 0 {
		return ""
	}
	return fmt.Sprintf("%d benchmark(s) omitted: cells failed (see matrix failure list)", skipped)
}

// Table3Report renders the PID-interval sweep against the adaptive
// scheme on the fast-variation group (the paper's closing comparison
// "to [23] with different and shorter interval lengths").
func Table3(opt Options, fastGroup []string) (Report, error) {
	opt = opt.withDefaults()
	if len(fastGroup) == 0 {
		return Report{}, invalidSpec(fmt.Errorf("experiment: empty fast group"))
	}
	sort.Strings(fastGroup)
	sub := opt
	sub.Benchmarks = fastGroup

	lines := []string{fmt.Sprintf("%-22s %12s %12s %12s", "scheme", "energy save", "perf degr.", "EDP impr.")}
	addRow := func(label string, mean powerComparison) {
		lines = append(lines, fmt.Sprintf("%-22s %11.2f%% %11.2f%% %11.2f%%",
			label, 100*mean.EnergySaving, 100*mean.PerfDegradation, 100*mean.EDPImprovement))
	}

	// Adaptive reference.
	adMean, err := meanOver(sub, SchemeAdaptive, 0)
	if err != nil {
		return Report{}, err
	}
	addRow("adaptive", adMean)

	for _, ticks := range []int{312, 625, 1250, 2500, 6250} {
		mean, err := meanOver(sub, SchemePID, ticks)
		if err != nil {
			return Report{}, err
		}
		us := float64(ticks) * 4.0 / 1000.0
		addRow(fmt.Sprintf("pid (interval %.2gus)", us), mean)
	}
	return Report{
		ID:    "table3",
		Title: "Adaptive vs PID at shorter interval lengths (fast-variation group)",
		Lines: lines,
		Notes: []string{"fast group: " + strings.Join(fastGroup, ", ")},
	}, nil
}

type powerComparison = power.Comparison

// meanOver runs a scheme over the option's benchmarks (plus baseline)
// and averages the comparison. Benchmark runs execute in parallel.
func meanOver(opt Options, scheme Scheme, pidTicks int) (powerComparison, error) {
	opt = opt.withDefaults()
	opt.PIDIntervalTicks = pidTicks
	comps := make([]powerComparison, len(opt.Benchmarks))
	err := firstError(forEachParallel(opt.ctx(), len(opt.Benchmarks), func(i int) error {
		b := opt.Benchmarks[i]
		base, err := RunOne(b, SchemeNone, opt)
		if err != nil {
			return err
		}
		run, err := RunOne(b, scheme, opt)
		if err != nil {
			return err
		}
		comps[i] = power.Compare(base.Metrics, run.Metrics)
		return nil
	}))
	if err != nil {
		return powerComparison{}, err
	}
	var sum powerComparison
	for _, c := range comps {
		sum = addComparison(sum, c)
	}
	n := float64(len(opt.Benchmarks))
	sum.EnergySaving /= n
	sum.PerfDegradation /= n
	sum.EDPImprovement /= n
	return sum, nil
}

// Table4 renders the hardware-cost comparison of Section 3.1.
func Table4() Report {
	budgets := []control.HardwareBudget{
		control.AdaptiveHardware(),
		baselines.AttackDecayHardware(),
		baselines.PIDHardware(),
	}
	lines := []string{fmt.Sprintf("%-14s %10s %s", "scheme", "gates", "notes")}
	notes := map[string]string{
		"adaptive":     "adders/comparators/counters + 5-state FSMs only (Figure 5)",
		"attack-decay": "interval statistics + one gain multiply per interval",
		"pid":          "three gain multiplies + accumulator state per interval",
	}
	for _, b := range budgets {
		lines = append(lines, fmt.Sprintf("%-14s %10d %s", b.Scheme, b.Gates(), notes[b.Scheme]))
	}
	return Report{
		ID:    "table4",
		Title: "Decision-logic hardware comparison (per clock domain)",
		Lines: lines,
		Notes: []string{"Section 3.1: the adaptive scheme's logic is book-keeping scale; fixed-interval schemes need per-interval arithmetic"},
	}
}

// RemarksReport renders the Section-4 stability analysis (Remarks 1–3)
// with both the analytic quantities and an RK4 validation run.
func RemarksReport() (Report, error) {
	s := stability.Default()
	var lines []string
	for _, f0 := range []float64{0.25, 0.5, 1.0} {
		r1, r2 := s.Roots(f0)
		lines = append(lines, fmt.Sprintf(
			"f0=%.2f  Km=%.5f Kl=%.5f  roots=(%.4f%+.4fi, %.4f%+.4fi)  xi=%.2f  ts=%.0f  tr=%.0f  overshoot=%.1f%%",
			f0, s.Km(f0), s.Kl(f0), real(r1), imag(r1), real(r2), imag(r2),
			s.DampingRatio(f0), s.SettlingTime(f0), s.RiseTime(f0), 100*s.Overshoot(f0)))
		if !s.Stable(f0) {
			// An unstable default system is a broken build, not a
			// caller-dispatchable failure mode.
			//lint:allow errtaxonomy internal sanity check outside the run taxonomy
			return Report{}, fmt.Errorf("experiment: default system unstable at f0=%g", f0)
		}
	}
	lo, hi := stability.DelayRatioBounds(0.5)
	lines = append(lines, fmt.Sprintf("Remark 3 delay-ratio band at Kl=0.5: Tm0/Tl0 in [%g, %g]", lo, hi))

	// RK4 validation: workload step at three delay settings.
	for _, scale := range []float64{0.5, 1, 4} {
		sys := stability.Default()
		sys.TM0 *= scale
		sys.TL0 *= scale
		tr, err := sys.StepResponse(0.5, 0.25, 0.5, 40000)
		if err != nil {
			return Report{}, err
		}
		met := sys.Analyze(tr)
		lines = append(lines, fmt.Sprintf(
			"RK4 step response, delays x%-4g: settle=%.0f periods  peakQ=%.2f  finalF=%.3f",
			scale, met.SettleTime, met.PeakQ, met.FinalF))
	}
	return Report{
		ID:    "remarks",
		Title: "Stability analysis (Section 4, Remarks 1-3)",
		Lines: lines,
		Notes: []string{
			"Remark 1: all roots in the left half-plane -> stable for any positive setting",
			"Remark 2: smaller delays settle faster (analytic ts=8/Kl and RK4 agree)",
			"Remark 3: Tm0/Tl0 of 2-8x keeps damping in [0.5,1] (small overshoot)",
		},
	}, nil
}

// bar renders a crude horizontal bar for terminal figures.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n)
}

// Summary condenses the whole evaluation into one page: the headline
// suite averages, the fast-group comparison, and the hardware costs —
// the numbers the paper's abstract cites.
func Summary(m *Matrix, classes []BenchClass) Report {
	lines := []string{
		fmt.Sprintf("benchmarks: %d (%d classified fast-varying)", len(m.Benchmarks), len(FastGroup(classes))),
		"",
		fmt.Sprintf("%-14s %12s %12s %12s", "suite average", "energy save", "perf degr.", "EDP impr."),
	}
	for _, s := range m.schemes() {
		c := m.MeanComparison(s, nil)
		lines = append(lines, fmt.Sprintf("%-14s %11.2f%% %11.2f%% %11.2f%%",
			s, 100*c.EnergySaving, 100*c.PerfDegradation, 100*c.EDPImprovement))
	}
	fast := FastGroup(classes)
	if len(fast) > 0 {
		lines = append(lines, "", fmt.Sprintf("%-14s %12s %12s %12s", "fast group", "energy save", "perf degr.", "EDP impr."))
		for _, s := range m.schemes() {
			c := m.MeanComparison(s, fast)
			lines = append(lines, fmt.Sprintf("%-14s %11.2f%% %11.2f%% %11.2f%%",
				s, 100*c.EnergySaving, 100*c.PerfDegradation, 100*c.EDPImprovement))
		}
	}
	lines = append(lines, "",
		fmt.Sprintf("decision-logic gates: adaptive %d, attack/decay %d, pid %d",
			control.AdaptiveHardware().Gates(),
			baselines.AttackDecayHardware().Gates(),
			baselines.PIDHardware().Gates()))
	return Report{
		ID:    "summary",
		Title: "Headline results (the abstract's claims, measured)",
		Lines: lines,
		Notes: []string{
			"paper: ~9% energy savings at ~3% degradation on average; adaptive decisively ahead on fast-varying workloads; much cheaper decision hardware",
		},
	}
}
