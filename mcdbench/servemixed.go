package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/serve"
	"mcddvfs/internal/trace"
)

// Warm requests render at serveInsts, so a classifying render takes
// about a hundred milliseconds and the load stays dominated by cheap
// requests. Cold requests render fig9 for two benchmarks at the same
// budget, each at a fresh seed derived from the workload seed, so every
// one simulates its eight cells.
const (
	serveInsts     = 10000
	coldServeInsts = 10000
	coldArtifact   = "cold"
	// coldEvery is each client's interval between cold requests.
	coldEvery = 500 * time.Millisecond
	// coldChecked cold requests per run are re-rendered with caching
	// off and compared; at the default seed their bodies also match
	// committed digests.
	coldChecked = 4
)

var coldServeBenches = []string{"adpcm_encode", "gzip"}

// coldSeed is the harness seed of the i-th cold request of a run.
func coldSeed(c config, i int64) int64 { return 1_000_000 + c.simSeed()*100_000 + i }

// served is one completed request.
type served struct {
	a        artifact
	cold     int64 // cold request index, -1 for warm ones
	status   int
	latency  time.Duration
	follower bool
	size     int
	sum      [32]byte
}

// serveRig is one mcdserve instance on a loopback listener.
type serveRig struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func newRig(clients int) (*serveRig, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	return &serveRig{srv, ts, &http.Client{Transport: tr}}, nil
}

func (r *serveRig) close() {
	r.ts.Close()
	r.srv.Shutdown(context.Background()) //nolint:errcheck // every request has returned; nothing is left to drain
	r.client.CloseIdleConnections()
}

// request builds the wire request for an operation.
func request(c config, a artifact, cold int64) serve.RenderRequest {
	if a.id == coldArtifact {
		return serve.RenderRequest{Artifact: "fig9", Format: "txt", Instructions: coldServeInsts, Seed: coldSeed(c, cold), Benchmarks: coldServeBenches}
	}
	return serve.RenderRequest{Artifact: a.id, Format: string(a.format), Instructions: serveInsts, Seed: c.simSeed()}
}

// do sends one render request and reads the whole reply.
func (r *serveRig) do(req serve.RenderRequest) (served, []byte, error) {
	blob, _ := json.Marshal(req)
	start := time.Now()
	resp, err := r.client.Post(r.ts.URL+"/api/v1/render", "application/json", bytes.NewReader(blob))
	if err != nil {
		return served{}, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return served{}, nil, err
	}
	return served{status: resp.StatusCode, latency: d, follower: resp.Header.Get("X-Mcdserve-Flight") == "follower", size: len(body), sum: sha256.Sum256(body)}, body, nil
}

func serveOptions(c config) experiment.Options {
	return experiment.Options{Instructions: serveInsts, Seed: c.simSeed()}
}

func runServeMixed(c config) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	clients := runtime.NumCPU()
	warm := append(append([]artifact(nil), cheapArtifacts...), classifyingArtifacts...)

	// Set-up: a fresh service whose memory tier is filled by rendering
	// every warm artifact once directly (these bytes are the reference
	// each warm reply must equal) and each cheap one once over HTTP.
	var setups []float64
	var rig *serveRig
	ref := map[artifact][32]byte{}
	for i := 0; i < 3; i++ {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		experiment.ResetCache()
		var err error
		if rig, err = newRig(clients); err != nil {
			return nil, err
		}
		for _, a := range warm {
			body, _, err := experiment.RenderArtifactContext(ctx, a.id, a.format, serveOptions(c))
			if err != nil {
				return nil, fmt.Errorf("direct render %s: %w", a, err)
			}
			ref[a] = sha256.Sum256(body)
			if a.classifies() {
				continue // classification is never cached; one render is enough
			}
			s, _, err := rig.do(request(c, a, -1))
			if err != nil || s.status != http.StatusOK {
				return nil, fmt.Errorf("warming %s: status %d, %v", a, s.status, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rig.close()

	// Each client loops over its own seed-shuffled cycle of 200 warm
	// requests, 199 cheap and 1 classifying, and sends a cold request
	// every coldEvery. At this host's 170-280 responses/s, cheap
	// requests are about 97% of the load and hold the p50; cold ones are
	// 1.5-3% and hold the p99; the classifying ones, slowest of all, are
	// the top 0.5%.
	mixes := make([][]artifact, clients)
	for i := range mixes {
		mixes[i] = opMix(rand.New(rand.NewSource(c.seed*1000+int64(i))), 200, 1, cheapArtifacts, classifyingArtifacts)
	}
	var coldNext atomic.Int64
	window := c.seconds
	if c.trace {
		window = c.seconds / 3
	}
	heap0 := retainedHeapMB()
	h0, m0 := experiment.CacheStats()
	recs, perClient, elapsed := serveLoad(c, rep, rig, nil, mixes, ref, &coldNext, newWindow(window, 1000), nil)
	h1, m1 := experiment.CacheStats()

	// Throughput is 200 responses per second over the whole window:
	// the slow classifying renders cluster unevenly in shorter slices.
	var lats []float64
	ok := 0
	for _, s := range recs {
		if s.status == http.StatusOK {
			ok++
		}
		lats = append(lats, s.latency.Seconds())
	}
	if !c.trace {
		setCommon(rep, setups, []float64{float64(ok) / elapsed.Seconds()}, lats, 0.99)
		heap := retainedHeapMB()
		rep.set("retained_heap_mb", heap, "MB")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		printModes(recs)
		if n := coldNext.Load(); n > 0 {
			fmt.Printf("# retained heap grew %.1f MB over %d cold requests: %.0f KB each\n", heap-heap0, n, 1e3*(heap-heap0)/float64(n))
		}
	}
	checkColdBodies(c, rep, recs)
	if !c.trace {
		return rep, nil
	}
	rep.set("experiment.mem_hit_share", share(h1-h0, m1-m0), "share")
	return rep, serveTraced(c, rep, rig, mixes, ref, &coldNext, recs, perClient, elapsed)
}

// serveLoad runs the closed loop: every client sends its next request
// when the previous reply arrives, until the window closes (or, with a
// nil window, until each has sent counts[i] requests).
func serveLoad(c config, rep *report, rig *serveRig, t *tracer, mixes [][]artifact, ref map[artifact][32]byte,
	coldNext *atomic.Int64, win *window, counts []int) ([]served, []int, time.Duration) {
	var mu sync.Mutex
	var all []served
	perClient := make([]int, len(mixes))
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range mixes {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			mix := mixes[ci]
			corrupt := c.inject == "corrupt" && ci == 0
			// Cold requests come on a clock, not as a share of the mix,
			// so their number (and the heap they leave behind) does not
			// follow the host's speed. Clients are staggered.
			nextCold := start.Add(coldEvery * time.Duration(ci+1) / time.Duration(len(mixes)))
			warm := 0
			for n := 0; ; n++ {
				if win != nil {
					mu.Lock()
					win.done = int(done.Load())
					open := win.open()
					mu.Unlock()
					if !open {
						break
					}
				} else if n >= counts[ci] {
					break
				}
				a := artifact{id: coldArtifact}
				cold := int64(-1)
				if time.Now().Before(nextCold) {
					a = mix[warm%len(mix)]
					warm++
				} else {
					cold = coldNext.Add(1) - 1
					nextCold = nextCold.Add(coldEvery)
				}
				id := t.begin("serve.request", 0, ci<<32|n)
				s, _, err := rig.do(request(c, a, cold))
				t.end(id)
				s.a, s.cold = a, cold
				if corrupt && cold < 0 {
					s.sum[0] ^= 1
					corrupt = false
				}
				mu.Lock()
				rep.attempted++
				switch {
				case err != nil:
					rep.fail("request %s: %v", a, err)
				case s.status != http.StatusOK:
					rep.fail("request %s: status %d", a, s.status)
				case cold < 0 && s.sum != ref[a]:
					rep.fail("request %s: body differs from the direct render", a)
				}
				all = append(all, s)
				mu.Unlock()
				perClient[ci]++
				done.Add(1)
			}
		}(ci)
	}
	wg.Wait()
	return all, perClient, time.Since(start)
}

// checkColdBodies re-renders the first cold requests with caching off
// and compares bytes; at the default seed it also compares them with
// the committed digests.
func checkColdBodies(c config, rep *report, recs []served) {
	sums := map[int64][32]byte{}
	for _, s := range recs {
		if s.cold >= 0 && s.cold < coldChecked && s.status == http.StatusOK {
			sums[s.cold] = s.sum
		}
	}
	experiment.SetCaching(false)
	defer experiment.SetCaching(true)
	for i := int64(0); i < coldChecked; i++ {
		got, ok := sums[i]
		if !ok {
			continue
		}
		req := request(c, artifact{id: coldArtifact}, i)
		opt := experiment.Options{Instructions: req.Instructions, Seed: req.Seed, Benchmarks: req.Benchmarks}
		body, _, err := experiment.RenderArtifactContext(context.Background(), req.Artifact, experiment.ArtifactFormat(req.Format), opt)
		rep.check(err == nil && sha256.Sum256(body) == got, "cold request %d: body differs from an uncached render (%v)", i, err)
		if want := committedDigest(fmt.Sprintf("serve-cold-%d", i), c); want != "" {
			rep.check(hex.EncodeToString(got[:]) == want, "cold request %d: body digest %x, committed %s", i, got[:8], want[:16])
		}
	}
}

// serveTraced repeats the untraced load with one span per request,
// then probes the direct warm render of each cheap artifact and the
// classifier, and splits the request time into serve, experiment and
// spectrum shares.
func serveTraced(c config, rep *report, rig *serveRig, mixes [][]artifact, ref map[artifact][32]byte, coldNext *atomic.Int64,
	untracedRecs []served, perClient []int, untraced time.Duration) error {
	t := newTracer()
	rep.spans = t
	start := time.Now()
	recs, _, _ := serveLoad(c, rep, rig, t, mixes, ref, coldNext, nil, perClient)
	traced := time.Since(start)

	// Direct warm renders per artifact: the median of five, or of two
	// for the slow classifying ones.
	ctx := context.Background()
	direct := map[artifact]float64{}
	for _, a := range append(append([]artifact(nil), cheapArtifacts...), classifyingArtifacts...) {
		var ds []float64
		for k := 0; k < 5 && (k < 2 || !a.classifies()); k++ {
			ds = append(ds, t.timed("experiment.RenderArtifactContext", 0, -1, func() {
				experiment.RenderArtifactContext(ctx, a.id, a.format, serveOptions(c)) //nolint:errcheck // timing probe of a checked render
			}).Seconds()*1e3)
		}
		direct[a] = median(ds)
	}
	var cheapMS []float64
	byArt := map[artifact][]float64{}
	var followers, shed, bytesOut, n int
	for _, s := range append(untracedRecs, recs...) {
		n++
		bytesOut += s.size
		if s.follower {
			followers++
		}
		if s.status == http.StatusTooManyRequests {
			shed++
		}
		byArt[s.a] = append(byArt[s.a], s.latency.Seconds()*1e3)
	}
	var overhead []float64
	for _, a := range cheapArtifacts {
		cheapMS = append(cheapMS, direct[a])
		if len(byArt[a]) > 0 {
			overhead = append(overhead, median(byArt[a])-direct[a])
		}
	}
	rep.set("experiment.render_ms", mean(cheapMS), "ms")
	rep.set("serve.http_overhead_ms", mean(overhead), "ms")
	rep.set("serve.follower_share", float64(followers)/float64(n), "share")
	rep.set("serve.shed_share", float64(shed)/float64(n), "share")
	rep.set("serve.resp_kb", float64(bytesOut)/float64(n)/1e3, "KB")

	// Classifier probe on the cached baselines.
	var baselines []*mcd.Result
	for _, b := range trace.Names() {
		if r, err := experiment.RunOne(b, experiment.SchemeNone, serveOptions(c)); err == nil {
			baselines = append(baselines, r)
		}
	}
	classifyMS, perRender := classifyProbe(t, baselines)
	rep.set("spectrum.classify_ms", classifyMS, "ms")
	if m, err := experiment.RunMatrix(serveOptions(c)); err == nil {
		ad := m.MeanComparison(experiment.SchemeAdaptive, nil)
		rep.set("mcd.sim_energy_saving_pct", 100*ad.EnergySaving, "%")
		rep.set("mcd.sim_perf_degradation_pct", 100*ad.PerfDegradation, "%")
	}

	// Attribution over the clients' time (each client is always waiting
	// on one request): a warm request spends its direct-render time in
	// experiment, of which a classifying render's classifier calls (the
	// probed cost spread over the pool) are spectrum's; the rest of its
	// latency is serve's. A cold request's time beyond the cheap HTTP
	// overhead is its render.
	workers := float64(runtime.GOMAXPROCS(0))
	httpMS := mean(overhead)
	var serveMS, expMS, specMS float64
	var specCalls int
	for _, s := range recs {
		lat := s.latency.Seconds() * 1e3
		render := direct[s.a]
		if s.cold >= 0 {
			render = lat - httpMS
		}
		spec := 0.0
		if s.a.classifies() {
			spec = math.Min(render, float64(perRender)*classifyMS/workers)
			specCalls += perRender
		}
		specMS += spec
		expMS += render - spec
		serveMS += math.Max(0, lat-render)
	}
	capacity := float64(len(mixes)) * float64(untraced.Nanoseconds()) / 1e6
	rep.layers = []layerRow{
		{"experiment", expMS, len(recs), expMS / capacity, "probe x count"},
		{"serve", serveMS, len(recs), serveMS / capacity, "spans - probes"},
		{"spectrum", specMS, specCalls, specMS / capacity, "probe x count"},
	}
	rep.set("bench.attributed_share", attributedShare(rep.layers), "share")
	rep.set("bench.tracing_overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1), "%")
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// printModes prints the median latency of each request kind.
func printModes(recs []served) {
	kinds := map[string][]float64{}
	for _, s := range recs {
		k := "cheap"
		switch {
		case s.cold >= 0:
			k = "cold"
		case s.a.classifies():
			k = "classifying"
		}
		kinds[k] = append(kinds[k], s.latency.Seconds()*1e3)
	}
	for _, k := range []string{"cheap", "classifying", "cold"} {
		fmt.Printf("# %s requests: %d, median %.1f ms\n", k, len(kinds[k]), median(kinds[k]))
	}
}
