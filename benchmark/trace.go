package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/obs"
)

// tracedPass is a workload driven once with a span around every call
// into a layer.
type tracedPass struct {
	wall     float64
	results  map[string]*campaign.Result
	figs     []*core.FigureResult
	spans    []Span
	tracks   map[string]bool // the worker tracks the ledger balances
	engine   string          // local workloads: the replay engine driven
	replayed int             // and the replays it delivered
	fleet    *fleetTaps      // fleet workload only
}

// openRoots starts one root span per worker track.
func openRoots(rec *Recorder, k int) ([]int, map[string]bool) {
	roots := make([]int, k)
	tracks := make(map[string]bool, k)
	for w := range roots {
		roots[w] = rec.Begin(0, trackName(w), rootName, "")
		tracks[trackName(w)] = true
	}
	return roots, tracks
}

// tracedLocal re-drives a local workload's plan through the public pieces
// campaign.Run and the distrib worker are built from: PrepareGolden,
// PlanCampaign, NextReplay, one of the three replay engines, Deliver and
// Planned.Result. What happens inside a replay (restore, fast-forward,
// faulty simulation, compare and hash) cannot be split from out here.
func (w workload) tracedLocal(seed int64, inj, workers int) (*tracedPass, error) {
	camps, err := w.matrix(seed, inj, workers)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder()
	tp := &tracedPass{results: make(map[string]*campaign.Result), engine: w.engine()}
	start := time.Now()
	roots, tracks := openRoots(rec, workers)
	tp.tracks = tracks

	p, err := prepare(camps, rec, roots)
	if err != nil {
		return nil, err
	}
	d := &dispatcher{p: p, engine: tp.engine, busy: make([]atomic.Int64, len(camps))}
	err = fanOut(rec, roots, func(wk int) error {
		return d.work(rec, roots[wk], trackName(wk))
	})
	if err != nil {
		return nil, err
	}
	tp.replayed = int(d.delivered.Load())
	err = fanOut(rec, roots, func(wk int) error {
		if wk != 0 {
			return nil
		}
		for i, c := range camps {
			s := rec.Begin(roots[0], trackName(0), "aggregate", c.Key)
			res, err := p.planned[i].Result(time.Duration(d.busy[i].Load()))
			rec.End(s)
			if err != nil {
				return fmt.Errorf("%s: %w", c.Key, err)
			}
			tp.results[c.Key] = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tp.wall = time.Since(start).Seconds()
	for _, r := range roots {
		rec.End(r)
	}
	tp.spans = rec.Spans()
	return tp, nil
}

// engine names the replay engine campaign.Run would pick for the
// workload's campaigns.
func (w workload) engine() string {
	cfg := w.Config(fault.TargetRF)
	switch {
	case w.Model == core.ModelRTL && cfg.Lanes != 1:
		return "batch"
	case cfg.Sched == campaign.SchedCursor:
		return "cursor"
	}
	return "scalar"
}

// chunkReplays is how many replays one job carries to a batch or cursor
// replayer, as Sweep's producer sizes them (64 lanes x 8 groups, and the
// cursor's pull): enough for the replayer's cycle sort to cluster
// injection instants. A scalar job is one replay.
const chunkReplays = 512

// dispatcher hands out replay work as Sweep's producer does: campaign
// after campaign in matrix order, a chunk at a time, so one worker can
// finish a campaign's tail while the other starts the next campaign.
type dispatcher struct {
	p      *prepared
	engine string

	mu   sync.Mutex
	camp int

	busy      []atomic.Int64 // replay nanoseconds per campaign
	delivered atomic.Int64
}

// pull drains the next chunk from the plan under a plan span.
func (d *dispatcher) pull(rec *Recorder, root int, track string) (camp int, idxs []int, specs []fault.Spec, ok bool) {
	size := chunkReplays
	if d.engine == "scalar" {
		size = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for ; d.camp < len(d.p.camps); d.camp++ {
		pl := d.p.planned[d.camp]
		s := rec.Begin(root, track, "plan", d.p.camps[d.camp].Key)
		for len(idxs) < size {
			idx, spec, more := pl.NextReplay()
			if !more {
				break
			}
			idxs, specs = append(idxs, idx), append(specs, spec)
		}
		rec.End(s)
		if len(idxs) > 0 {
			return d.camp, idxs, specs, true
		}
	}
	return 0, nil, nil, false
}

// work is one worker: it replays chunks until the matrix is drained,
// keeping one set of simulators for the campaign it is on. Building them
// is part of what a replay engine costs, so it sits inside a replay span.
func (d *dispatcher) work(rec *Recorder, root int, track string) error {
	var (
		cur  = -1
		a, b campaign.Simulator
		br   *campaign.BatchReplayer
		cr   *campaign.CursorReplayer
	)
	defer func() {
		if br != nil {
			br.Close()
		}
	}()
	for {
		camp, idxs, specs, ok := d.pull(rec, root, track)
		if !ok {
			return nil
		}
		c, g, pl := d.p.camps[camp], d.p.goldens[camp], d.p.planned[camp]
		cfg := pl.Config()
		t0 := time.Now()
		s := rec.Begin(root, track, "replay", c.Key)
		if camp != cur {
			if br != nil {
				br.Close()
				br = nil
			}
			var err error
			if a, err = c.Factory(); err != nil {
				return err
			}
			if d.engine != "scalar" {
				if b, err = c.Factory(); err != nil {
					return err
				}
			}
			switch d.engine {
			case "batch":
				if br = campaign.NewBatchReplayer(g, cfg, a, b); br == nil {
					return fmt.Errorf("%s: batch replay unavailable", c.Key)
				}
			case "cursor":
				cr = campaign.NewCursorReplayer(g, cfg, a, b)
				cr.Stop = pl.Stopped
			}
			cur = camp
		}
		deliver := func(parent int) func(int, campaign.RunOutcome) error {
			return func(idx int, oc campaign.RunOutcome) error {
				cs := rec.Begin(parent, track, "collect", c.Key)
				defer rec.End(cs)
				d.delivered.Add(1)
				return pl.Deliver(idx, oc)
			}
		}
		var err error
		if d.engine == "scalar" {
			var oc campaign.RunOutcome
			oc, err = g.ReplayOne(a, specs[0], cfg)
			rec.End(s)
			d.busy[camp].Add(int64(time.Since(t0)))
			if err == nil {
				err = deliver(root)(idxs[0], oc)
			}
		} else {
			k := 0
			next := func() (int, fault.Spec, bool) {
				if k >= len(idxs) {
					return 0, fault.Spec{}, false
				}
				k++
				return idxs[k-1], specs[k-1], true
			}
			if br != nil {
				err = br.Replay(next, deliver(s))
			} else {
				err = cr.Replay(next, deliver(s))
			}
			rec.End(s)
			d.busy[camp].Add(int64(time.Since(t0)))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.Key, err)
		}
	}
}

// route names an API path for counters and span names.
func route(method, path string) string {
	switch {
	case path == "/api/v1/lease":
		return "lease"
	case path == "/api/v1/heartbeat":
		return "heartbeat"
	case path == "/api/v1/outcomes":
		return "outcomes"
	case path == "/api/v1/campaigns" && method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(path, "/report"):
		return "report"
	case strings.HasPrefix(path, "/api/v1/campaigns/"):
		return "progress"
	}
	return "other"
}

// roundTrip is one worker-side HTTP round trip as ReqLog reported it.
type roundTrip struct {
	route      string
	status     int
	start, end time.Time
}

// fleetTaps collects what a fleet pass shows from outside: the requests
// the coordinator's handler served, the bytes that crossed it and each
// worker's round trips.
type fleetTaps struct {
	rec *Recorder

	mu       sync.Mutex
	requests map[string]int
	busy     time.Duration
	trips    [][]roundTrip // per worker
	wire     atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

func (t *fleetTaps) hooks() *fleetHooks {
	return &fleetHooks{
		wrap: func(h http.Handler) http.Handler {
			counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r.Body = countingBody{r.Body, &t.wire}
				h.ServeHTTP(countingWriter{w, &t.wire}, r)
			})
			return distrib.LogRequests(counted, func(method, path string, _ int, d time.Duration) {
				now := time.Now()
				name := route(method, path)
				t.rec.Add(0, "coordinator", "handle "+name, "", now.Add(-d), now)
				t.mu.Lock()
				t.requests[name]++
				t.busy += d
				t.mu.Unlock()
			})
		},
		reqLog: func(worker int) func(string, string, int, time.Duration) {
			return func(method, path string, status int, d time.Duration) {
				now := time.Now()
				t.mu.Lock()
				t.trips[worker] = append(t.trips[worker], roundTrip{route(method, path), status, now.Add(-d), now})
				t.mu.Unlock()
			}
		},
	}
}

// workerSpans turns one worker's round trips into its track: a lease
// round trip is the plan phase (the coordinator fills the shard from the
// plan inside it), the stretch from a granted lease to the outcome post
// is the replay phase (golden preparation included; the obs registry says
// how much), the outcome post is the collect phase (the merge runs inside
// it) and the wait after an empty lease is idle time. Heartbeats run
// beside the replay, so they get a track of their own.
func workerSpans(rec *Recorder, root int, track string, trips []roundTrip, from, to time.Time) {
	sort.Slice(trips, func(i, j int) bool { return trips[i].start.Before(trips[j].start) })
	var pendingName string
	var pendingFrom time.Time
	for _, rt := range trips {
		if rt.start.Before(from) || rt.end.After(to) {
			continue
		}
		if rt.route == "heartbeat" {
			rec.Add(0, track+".hb", "heartbeat", "", rt.start, rt.end)
			continue
		}
		if pendingName != "" {
			rec.Add(root, track, pendingName, "", pendingFrom, rt.start)
			pendingName = ""
		}
		switch rt.route {
		case "lease":
			rec.Add(root, track, "plan", "", rt.start, rt.end)
			pendingName, pendingFrom = "idle", rt.end
			if rt.status == http.StatusOK {
				pendingName = "replay"
			}
		case "outcomes":
			rec.Add(root, track, "collect", "", rt.start, rt.end)
		}
	}
	if pendingName != "" {
		rec.Add(root, track, pendingName, "", pendingFrom, to)
	}
}

// tracedRunner is distrib.Client.SweepRunner with a span around every
// Submit and Wait.
func tracedRunner(c *distrib.Client, rec *Recorder) core.SweepRunner {
	return func(items []core.MatrixItem, opt campaign.SweepOptions) (*campaign.SweepResult, error) {
		start := time.Now()
		ids := make([]string, len(items))
		for i, it := range items {
			s := rec.Begin(0, "client", "submit", it.Campaign.Key)
			id, err := c.Submit(distrib.CampaignSpec{
				Workload: it.Workload, Model: it.Model.String(), Setup: it.Setup, Config: it.Campaign.Config,
			})
			rec.End(s)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.Campaign.Key, err)
			}
			ids[i] = id
		}
		sr := &campaign.SweepResult{
			Results: make(map[string]*campaign.Result, len(items)),
			Goldens: make(map[string]campaign.GoldenInfo),
		}
		for i, it := range items {
			s := rec.Begin(0, "client", "wait", it.Campaign.Key)
			res, err := c.Wait(ids[i], opt.Stop)
			rec.End(s)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", it.Campaign.Key, err)
			}
			sr.Results[it.Campaign.Key] = res
			if _, ok := sr.Goldens[it.Campaign.Group]; !ok {
				sr.Goldens[it.Campaign.Group] = campaign.GoldenInfo{
					Group: it.Campaign.Group, Cycles: res.GoldenCycles, Txns: res.GoldenTxns, Elapsed: res.GoldenElapsed,
				}
			}
		}
		sr.GoldenRuns = len(sr.Goldens)
		sr.Elapsed = time.Since(start)
		return sr, nil
	}
}

// tracedFleet runs the cross-level matrix on a tapped loopback fleet.
func (w workload) tracedFleet(seed int64, inj, workers int) (*tracedPass, error) {
	rec := NewRecorder()
	taps := &fleetTaps{rec: rec, requests: make(map[string]int), trips: make([][]roundTrip, fleetWorkers)}
	f := startFleet(fleetWorkers, taps.hooks())
	start := time.Now()
	roots, tracks := openRoots(rec, fleetWorkers)
	results, figs, err := runFigures(fleetParams(seed, inj, workers, tracedRunner(f.client, rec)))
	end := time.Now()
	for _, r := range roots {
		rec.End(r)
	}
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	for i, r := range roots {
		workerSpans(rec, r, trackName(i), taps.trips[i], start, end)
	}
	return &tracedPass{
		wall: end.Sub(start).Seconds(), results: results, figs: figs,
		spans: rec.Spans(), tracks: tracks, fleet: taps,
	}, nil
}

// scrape reads the in-process obs registry the way an operator would,
// through its Prometheus text.
func scrape() (map[string]float64, error) {
	var b strings.Builder
	if err := obs.WritePrometheus(&b); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sansWall is what must agree between a fleet's and a local sweep's
// result of one campaign: everything but wall times, the pool size, and
// the lane accounting a fleet worker keeps to itself.
func sansWall(r *campaign.Result) any {
	c := *r
	c.Elapsed, c.AvgSecPerRun, c.GoldenElapsed = 0, 0, 0
	c.Config.Workers = 0
	c.BatchedRuns, c.PeeledRuns, c.LaneOccupancy = 0, 0, 0
	return c
}

// differing reports the campaigns on which two executions of one matrix
// disagree, comparing what view keeps of each result.
func differing(a, b map[string]*campaign.Result, view func(*campaign.Result) any) []string {
	var diff []string
	for k, ra := range a {
		rb, ok := b[k]
		if !ok || !reflect.DeepEqual(view(ra), view(rb)) {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	if len(a) != len(b) {
		diff = append(diff, fmt.Sprintf("%d campaigns against %d", len(a), len(b)))
	}
	return diff
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(p*float64(len(s))))]
}

// runTraced produces a workload's per-layer metrics: an untraced pass for
// the engine's own exact statistics and the wall to compare against, the
// traced pass, and the probes of the layers the workload exercises.
func runTraced(w workload, rc runConfig, e *expectations) (*outcome, error) {
	inj, seed := w.injections(rc.scale), planSeed(rc.seed, 0)
	m := make(map[string]float64)
	out := &outcome{metrics: m}

	if rc.warmup {
		if _, err := w.timedPass(seed, max(2, inj/10), rc.workers, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	plain, err := w.timedPass(seed, inj, rc.workers, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	failed, problems := checkResults(e, w, seed, inj, plain.results)
	out.attempted, out.failed, out.problems = plain.faults, failed, problems
	engineStats(m, plain)

	var tp *tracedPass
	if w.Fleet {
		obs.Default.Reset()
		obs.Enable()
		tp, err = w.tracedFleet(seed, inj, rc.workers)
		obs.Disable()
	} else {
		tp, err = w.tracedLocal(seed, inj, rc.workers)
	}
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if diff := differing(plain.results, tp.results, func(r *campaign.Result) any { return pinOf(r) }); len(diff) > 0 {
		out.failed += inj * len(diff)
		out.problems = append(out.problems, fmt.Sprintf("traced and untraced outcomes differ: %v", diff))
	}
	if rc.outDir != "" {
		if err := writeSpans(filepath.Join(rc.outDir, "spans-"+w.Name+".json"), w.Name, tp.spans); err != nil {
			return nil, err
		}
	}
	l := reconcile(tp.spans, tp.tracks)
	for _, ph := range []string{"golden_prep", "plan", "replay", "collect", "aggregate", "idle"} {
		m["span."+ph+"_s"] = l.Phase[ph]
	}
	m["span.unattributed_frac"] = l.Unattributed / l.TrackSeconds
	m["span.overhead_frac"] = tp.wall/plain.wall - 1
	if tp.replayed > 0 && tp.engine != "scalar" { // the scalar engine has a probe of its own
		m["campaign.replay_"+tp.engine+"_us_per_fault"] = l.Phase["replay"] * 1e6 / float64(tp.replayed)
	}

	if w.Fleet {
		if err := fleetStats(m, rc, inj, plain, tp, out); err != nil {
			return nil, err
		}
	}
	if err := probes(m, w, rc); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.gc_cycles"] = float64(plain.gcCycles)
	m["proc.gc_pause_ms"] = plain.gcPauseMs
	return out, nil
}

// engineStats derives the exact simulated statistics of a pass from the
// engine's own results.
func engineStats(m map[string]float64, ps passStats) {
	var cycles, ffCost, ffSaved uint64
	var faults, converged, pruned, batched, peeled int
	var occSum float64
	var occN int
	unsafe := map[fault.Target][2]int{}
	for _, r := range ps.results {
		n := len(r.Outcomes)
		faults += n
		cycles += r.CyclesSimulated
		ffCost += r.FastForwardCycles + r.FastForwardSaved
		ffSaved += r.FastForwardSaved
		converged += r.ConvergedRuns
		pruned += r.PrunedRuns
		batched += r.BatchedRuns
		peeled += r.PeeledRuns
		if r.LaneOccupancy > 0 {
			occSum += r.LaneOccupancy
			occN++
		}
		u := unsafe[r.Config.Target]
		unsafe[r.Config.Target] = [2]int{u[0] + r.Unsafeness.Hits, u[1] + r.Unsafeness.N}
	}
	m["campaign.cycles_per_fault"] = float64(cycles) / float64(faults)
	m["campaign.sim_mcycles_per_s"] = float64(cycles) / 1e6 / ps.wall
	if ffCost > 0 {
		m["campaign.ff_saved_frac"] = float64(ffSaved) / float64(ffCost)
	}
	m["campaign.converged_frac"] = float64(converged) / float64(faults)
	m["campaign.pruned_frac"] = float64(pruned) / float64(faults)
	if batched+peeled > 0 {
		m["campaign.peeled_frac"] = float64(peeled) / float64(batched+peeled)
		m["campaign.lane_occupancy"] = occSum / float64(occN)
	}
	for _, tg := range targets {
		if u := unsafe[tg.t]; u[1] > 0 {
			m["core.unsafeness_"+tg.short+"_pct"] = 100 * float64(u[0]) / float64(u[1])
		}
	}
}

// fleetStats fills the distrib and cross-level metrics of the fleet
// workload: the handler's counters, the workers' lease round trips, the
// obs registry, and the same matrix through the local sweep.
func fleetStats(m map[string]float64, rc runConfig, inj int, plain passStats, tp *tracedPass, out *outcome) error {
	t := tp.fleet
	total := 0
	for _, n := range t.requests {
		total += n
	}
	m["distrib.requests"] = float64(total)
	m["distrib.lease_requests"] = float64(t.requests["lease"])
	m["distrib.heartbeat_requests"] = float64(t.requests["heartbeat"])
	m["distrib.outcome_batches"] = float64(t.requests["outcomes"])
	m["distrib.progress_polls"] = float64(t.requests["progress"])
	m["distrib.handler_busy_s"] = t.busy.Seconds()
	m["distrib.wire_mb"] = float64(t.wire.Load()) / 1e6
	var rtts []float64
	for _, trips := range t.trips {
		for _, rt := range trips {
			if rt.route == "lease" && rt.status == http.StatusOK {
				rtts = append(rtts, rt.end.Sub(rt.start).Seconds()*1e3)
			}
		}
	}
	m["distrib.lease_rtt_ms_p50"] = percentile(rtts, 0.5)
	m["distrib.lease_rtt_ms_p90"] = percentile(rtts, 0.9)

	reg, err := scrape()
	if err != nil {
		return err
	}
	m["distrib.merge_s"] = reg["distrib_merge_seconds_sum"]
	m["distrib.worker_golden_prep_s"] = reg["worker_golden_prep_seconds_sum"]
	m["distrib.golden_cache_misses"] = reg["distrib_golden_cache_misses_total"]
	for name, series := range map[string]string{
		"distrib.leases_expired":      "distrib_leases_expired_total",
		"distrib.shard_retries":       "distrib_shard_retries_total",
		"distrib.worker_http_retries": "worker_http_retries_total",
	} {
		m[name] = reg[series]
		if reg[series] != 0 {
			out.problems = append(out.problems, fmt.Sprintf("%s = %v on a healthy loopback fleet", name, reg[series]))
			out.failed += inj
		}
	}

	// The same matrix through the local sweep: its results must equal
	// the fleet's, and its wall is the base of the fleet's tax.
	t0 := time.Now()
	local, localFigs, err := runFigures(fleetParams(planSeed(rc.seed, 0), inj, rc.workers, nil))
	if err != nil {
		return fmt.Errorf("local sweep: %w", err)
	}
	localWall := time.Since(t0).Seconds()
	if diff := differing(local, plain.results, sansWall); len(diff) > 0 {
		out.problems = append(out.problems, fmt.Sprintf("fleet and local results differ: %v", diff))
		out.failed += inj * len(diff)
	}
	m["distrib.local_wall_s"] = localWall
	m["distrib.fleet_tax_frac"] = plain.wall/localWall - 1

	// Cross-level difference between the first two series of each figure
	// (microarch windowed, RTL windowed) and the host-time ratio between
	// them, from the local sweep's per-series busy time (a coordinator
	// reports a campaign's wall, which overlaps its neighbours').
	for i, tg := range targets {
		f := plain.figs[i]
		m["core.xlevel_"+tg.short+"_diff_pp"] = 100 * f.Diff.MeanAbsDiff
		m["core.xlevel_"+tg.short+"_rel_diff"] = f.Diff.MeanRelDiff
	}
	var busy [2]float64
	for _, f := range localFigs {
		for s := 0; s < 2; s++ {
			for _, r := range f.Series[s].Results {
				busy[s] += r.Elapsed.Seconds() + r.GoldenElapsed.Seconds()
			}
		}
	}
	if busy[0] > 0 {
		m["core.xlevel_speed_ratio"] = busy[1] / busy[0]
	}
	return nil
}
