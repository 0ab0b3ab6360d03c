package distrib_test

// A lease is a golden unit: a shard of every running campaign that
// replays against one golden run. These tests hold the fleet to the
// local sweep on a matrix whose campaigns share goldens, and count the
// golden runs a coordinator prepares across two figures.

import (
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TestFleetUnitsMatchLocal submits windowed and run-to-end microarch
// campaigns, which share a golden run, plus an RTL campaign. A worker
// that takes the heaviest unit and dies must have been handed both
// microarch campaigns in one lease, and once two workers have finished
// the matrix, the expired shard included, every result must equal the
// local sweep's. TestLeaseAffinityNamesGoldenFingerprint covers a
// request that names a held golden run.
func TestFleetUnitsMatchLocal(t *testing.T) {
	base := campaign.Config{Injections: 24, Seed: 9, Target: fault.TargetRF, Obs: campaign.ObsPinout, Window: 500}
	runToEnd := base
	runToEnd.Window = 0
	specs := []distrib.CampaignSpec{
		{Workload: "qsort", Model: "microarch", Config: base},
		{Workload: "qsort", Model: "microarch", Config: runToEnd},
		{Workload: "qsort", Model: "rtl", Config: base},
	}
	want := localSweep(t, specs)

	c, srv := startCoordinator(t, distrib.CoordinatorOptions{
		LeaseTTL: 300 * time.Millisecond, ShardSize: 4, Logf: t.Logf,
	})
	client := distrib.NewClient(srv.URL)
	client.Poll = 20 * time.Millisecond
	ids := make([]string, len(specs))
	for i, s := range specs {
		id, err := client.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	distrib.WaitRunning(t, c, ids...)

	dead, err := c.Lease(distrib.LeaseRequest{API: distrib.APIVersion, Worker: "dies-mid-unit"})
	if err != nil || dead == nil {
		t.Fatalf("unit lease: %v %v", dead, err)
	}
	if got := memberIDs(dead); !reflect.DeepEqual(got, ids[:2]) {
		t.Fatalf("the heaviest unit leased campaigns %v, want both microarch campaigns %v", got, ids[:2])
	}
	// The lessee never returns: the lease expires and is re-issued.

	startWorker(t, srv.URL, "w1")
	startWorker(t, srv.URL, "w2")
	for i, id := range ids {
		got, err := client.Wait(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		normalize(got)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s/%s window %d: fleet result diverged from the local sweep:\n got %+v\nwant %+v",
				specs[i].Workload, specs[i].Model, specs[i].Config.Window, got, want[i])
		}
	}
}

// TestCoordinatorPreparesEachGoldenOnce regenerates Figures 1 and 2
// through a fleet, one after the other as cmd/paper -remote does. A
// golden key is a simulator, and an RTL golden run always records the
// L1D timeline Figure 2's advance-to-use campaigns need, so the second
// figure's campaigns, on both levels, replay against the first's golden
// runs: the coordinator prepares each simulator's once, and no worker
// prepares more golden runs than there are keys.
func TestCoordinatorPreparesEachGoldenOnce(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	_, srv := startCoordinator(t, distrib.CoordinatorOptions{ShardSize: 8, Logf: t.Logf})
	startWorker(t, srv.URL, "w1")
	startWorker(t, srv.URL, "w2")
	client := distrib.NewClient(srv.URL)
	client.Poll = 20 * time.Millisecond

	series := []string{"distrib_golden_cache_misses_total", "worker_golden_prep_seconds_count"}
	before := scrapeSeries(t, srv.URL, series...)
	benches := []string{"caes", "fft", "sha"}
	p := core.Params{
		Injections: 6, Seed: 4, Window: 500, Workers: 1, Setup: core.CampaignSetup(),
		Benches: benches, Runner: client.SweepRunner(),
	}
	if _, err := p.Figure1(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Figure2(); err != nil {
		t.Fatal(err)
	}
	after := scrapeSeries(t, srv.URL, series...)

	// Per bench: the microarch run and the RTL run, each serving both
	// figures.
	keys := 2 * len(benches)
	if got := after[series[0]] - before[series[0]]; got != float64(keys) {
		t.Errorf("coordinator prepared %v golden runs for %d distinct keys", got, keys)
	}
	if got := after[series[1]] - before[series[1]]; got > float64(2*keys) {
		t.Errorf("two workers prepared %v golden runs for %d distinct keys", got, keys)
	}
}

// TestSetupSpellingsAreOneCampaign submits one config with the setup
// left empty, as faultsim -remote does, and spelled "campaign", as
// paper -remote does. Both name one simulator, so the coordinator must
// see one campaign ID and prepare one golden run.
func TestSetupSpellingsAreOneCampaign(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	c, srv := startCoordinator(t, distrib.CoordinatorOptions{Logf: t.Logf})
	const misses = "distrib_golden_cache_misses_total"
	before := scrapeSeries(t, srv.URL, misses)[misses]
	cfg := campaign.Config{Injections: 8, Seed: 2, Target: fault.TargetRF, Obs: campaign.ObsPinout, Window: 500}
	var ids []string
	for _, setup := range []string{"", "campaign"} {
		resp, err := c.Submit(distrib.CampaignSpec{Workload: "qsort", Model: "microarch", Setup: setup, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	distrib.WaitRunning(t, c, ids...)
	if ids[0] != ids[1] {
		t.Errorf("setups \"\" and \"campaign\" got campaign IDs %s and %s, want one", ids[0], ids[1])
	}
	if got := scrapeSeries(t, srv.URL, misses)[misses] - before; got != 1 {
		t.Errorf("coordinator prepared %v golden runs for one simulator", got)
	}
}

// TestFleetWidensGoldenForNewNeed submits a plain microarch campaign
// and, while it is running, a PruneDead campaign of the same simulator,
// which needs the lifetime trace the running golden run lacks. The
// coordinator must prepare exactly one more golden run, recorded with
// the union of both needs, while the running campaign keeps the run it
// was planned against; both results must equal the local sweep's.
func TestFleetWidensGoldenForNewNeed(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	plain := campaign.Config{Injections: 24, Seed: 6, Target: fault.TargetRF, Obs: campaign.ObsPinout, Window: 500}
	pruned := plain
	pruned.Prune = campaign.PruneDead
	specs := []distrib.CampaignSpec{
		{Workload: "qsort", Model: "microarch", Config: plain},
		{Workload: "qsort", Model: "microarch", Config: pruned},
	}
	want := localSweep(t, specs)

	c, srv := startCoordinator(t, distrib.CoordinatorOptions{ShardSize: 4, Logf: t.Logf})
	const misses = "distrib_golden_cache_misses_total"
	before := scrapeSeries(t, srv.URL, misses)[misses]
	ids := make([]string, len(specs))
	for i, s := range specs {
		resp, err := c.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.ID
		distrib.WaitRunning(t, c, ids[i])
	}
	if got := scrapeSeries(t, srv.URL, misses)[misses] - before; got != 2 {
		t.Errorf("coordinator prepared %v golden runs, want 2: the plain run and one widened for pruning", got)
	}
	g0, opts0 := distrib.CampaignGolden(c, ids[0])
	g1, opts1 := distrib.CampaignGolden(c, ids[1])
	if wide := opts0.Merge(campaign.GoldenOptionsFor(pruned)); g1 == g0 || opts1 != wide || opts0 == wide {
		t.Errorf("golden options: running campaign %+v, pruned campaign %+v (same run %v); want the pruned one on a separate run with %+v",
			opts0, opts1, g1 == g0, wide)
	}

	client := distrib.NewClient(srv.URL)
	client.Poll = 20 * time.Millisecond
	startWorker(t, srv.URL, "w1")
	startWorker(t, srv.URL, "w2")
	for i, id := range ids {
		got, err := client.Wait(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		normalize(got)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("campaign %d: fleet result diverged from the local sweep:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// localSweep runs specs as one local sweep, grouped by golden run as a
// figure groups them, and returns the normalised results in spec order.
func localSweep(t *testing.T, specs []distrib.CampaignSpec) []*campaign.Result {
	t.Helper()
	var matrix []campaign.SweepCampaign
	for i, s := range specs {
		m, err := core.ParseModel(s.Model)
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.Standalone(s.Workload, m, core.CampaignSetup(), s.Config)
		if err != nil {
			t.Fatal(err)
		}
		matrix = append(matrix, campaign.SweepCampaign{
			Key: strconv.Itoa(i), Group: s.Workload + "/" + s.Model, Factory: st.Factory, Config: s.Config,
		})
	}
	sr, err := campaign.Sweep(matrix, campaign.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*campaign.Result, len(specs))
	for i := range specs {
		out[i] = sr.Results[strconv.Itoa(i)]
		normalize(out[i])
	}
	return out
}

func memberIDs(l *distrib.Lease) []string {
	var ids []string
	for _, m := range l.Members {
		ids = append(ids, m.CampaignID)
	}
	return ids
}

// scrapeSeries reads the named series off a /metrics endpoint.
func scrapeSeries(t *testing.T, base string, names ...string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		for _, n := range names {
			if v, ok := strings.CutPrefix(line, n+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("series %s: %v", n, err)
				}
				out[n] = f
			}
		}
	}
	return out
}
