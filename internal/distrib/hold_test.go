package distrib

// An idle lease request and a progress request waiting for a campaign's
// end are held at the coordinator and woken when their answer may have
// changed. These tests hold each wake path to a bound far below the
// request's own hold, and each hold to its bound when nothing comes.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// wakeBound is how soon after its cause a held request must answer; the
// holds it is set against are seconds long.
const wakeBound = 250 * time.Millisecond

// holdSpec is a small campaign of one qsort microarch golden run.
func holdSpec(seed int64) CampaignSpec {
	return CampaignSpec{Workload: "qsort", Model: "microarch", Config: campaign.Config{
		Injections: 8, Seed: seed, Target: fault.TargetRF, Obs: campaign.ObsPinout, Window: 500,
	}}
}

// heldLease is a Lease answer and when it came.
type heldLease struct {
	l   *Lease
	err error
	at  time.Time
}

// holdLease sends a lease request asking to be held wait long.
func holdLease(c *Coordinator, wait time.Duration) <-chan heldLease {
	ch := make(chan heldLease, 1)
	go func() {
		l, err := c.Lease(LeaseRequest{API: APIVersion, Worker: "held", WaitMillis: wait.Milliseconds()})
		ch <- heldLease{l, err, time.Now()}
	}()
	return ch
}

func receive(t *testing.T, ch <-chan heldLease) heldLease {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("held lease request never answered")
		return heldLease{}
	}
}

// TestLeaseWaitWakesOnPreparedUnit: a held lease request answers with
// the unit as soon as its preparation finishes, answers nil no sooner
// than its wait when nothing comes, and answers at once when the
// coordinator closes.
func TestLeaseWaitWakesOnPreparedUnit(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{Logf: t.Logf})
	defer c.Close()

	const idle = 60 * time.Millisecond
	start := time.Now()
	if r := receive(t, holdLease(c, idle)); r.l != nil || r.at.Sub(start) < idle {
		t.Errorf("idle coordinator: lease %+v after %v; want none after at least %v", r.l, r.at.Sub(start), idle)
	}

	// A campaign the preparation loop never sees, prepared here once a
	// request is held.
	spec := holdSpec(1)
	sim, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cs := &campState{id: specID(spec), spec: spec, sim: sim, status: StatusPreparing}
	c.mu.Lock()
	c.campaigns[cs.id] = cs
	c.order = append(c.order, cs)
	c.mu.Unlock()
	held := holdLease(c, 20*time.Second)
	time.Sleep(20 * time.Millisecond)
	c.prepare(cs)
	prepared := time.Now()
	r := receive(t, held)
	if r.l == nil || len(r.l.Members) != 1 || r.l.Members[0].CampaignID != cs.id {
		t.Fatalf("held request after preparation: %+v; want a lease of campaign %s", r.l, cs.id)
	}
	if d := r.at.Sub(prepared); d > wakeBound {
		t.Errorf("held request answered %v after the unit was prepared, want at most %v", d, wakeBound)
	}

	closing := NewCoordinator(CoordinatorOptions{Logf: t.Logf})
	held = holdLease(closing, 20*time.Second)
	time.Sleep(20 * time.Millisecond)
	closed := time.Now()
	if err := closing.Close(); err != nil {
		t.Fatal(err)
	}
	if r := receive(t, held); r.l != nil || r.at.Sub(closed) > wakeBound {
		t.Errorf("held request on Close: lease %+v after %v; want none within %v", r.l, r.at.Sub(closed), wakeBound)
	}
}

// TestHeldLeaseReissuesExpiredShard: a lease request held while another
// worker's lease runs out takes the expired shard when it expires, not
// when its own hold ends.
func TestHeldLeaseReissuesExpiredShard(t *testing.T) {
	const ttl = 400 * time.Millisecond
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: ttl, Logf: t.Logf})
	defer c.Close()
	resp, err := c.Submit(holdSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, resp.ID)
	issued := time.Now()
	dead, err := c.Lease(LeaseRequest{API: APIVersion, Worker: "dies"})
	if err != nil || dead == nil {
		t.Fatalf("first lease: %+v %v", dead, err)
	}
	// The one shard is out: a request held from halfway through the
	// lease's life would, waiting out its hold (the TTL), end half a
	// TTL after the expiry.
	time.Sleep(ttl / 2)
	asked := time.Now()
	r := receive(t, holdLease(c, 10*time.Second))
	if r.l == nil || !reflect.DeepEqual(r.l.Jobs, dead.Jobs) {
		t.Fatalf("held request: %+v; want the expired lease's jobs %+v", r.l, dead.Jobs)
	}
	if life := r.at.Sub(issued); life < ttl {
		t.Errorf("shard re-issued %v after its lease, before the %v TTL ran out", life, ttl)
	}
	if d := r.at.Sub(asked); d > ttl/2+wakeBound/2 {
		t.Errorf("held request answered %v after it was sent; the lease expired %v in", d, ttl/2)
	}
}

// TestProgressWaitReturnsOnDone: GET /api/v1/campaigns/{id}?waitMillis=
// answers as soon as the campaign is done, holds for its wait while the
// campaign runs, and answers an unknown campaign at once.
func TestProgressWaitReturnsOnDone(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{Logf: t.Logf})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := c.Submit(holdSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, resp.ID)

	type answer struct {
		p    Progress
		code int
		at   time.Time
	}
	get := func(id string, wait time.Duration) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			var a answer
			r, err := http.Get(fmt.Sprintf("%s/api/v1/campaigns/%s?waitMillis=%d", srv.URL, id, wait.Milliseconds()))
			if err != nil {
				t.Error(err)
			} else {
				a.code = r.StatusCode
				_ = json.NewDecoder(r.Body).Decode(&a.p)
				r.Body.Close()
			}
			a.at = time.Now()
			ch <- a
		}()
		return ch
	}
	recv := func(ch <-chan answer) answer {
		t.Helper()
		select {
		case a := <-ch:
			return a
		case <-time.After(30 * time.Second):
			t.Fatal("held progress request never answered")
			return answer{}
		}
	}

	start := time.Now()
	if a := recv(get("c0000000000000000", 20*time.Second)); a.code != http.StatusNotFound || a.at.Sub(start) > wakeBound {
		t.Errorf("unknown campaign: status %d after %v; want 404 at once", a.code, a.at.Sub(start))
	}
	const idle = 60 * time.Millisecond
	start = time.Now()
	if a := recv(get(resp.ID, idle)); a.p.Status != StatusRunning || a.at.Sub(start) < idle {
		t.Errorf("running campaign: %q after %v; want %q after at least %v", a.p.Status, a.at.Sub(start), StatusRunning, idle)
	}

	// Finish the campaign by hand: every shard leased and answered.
	held := get(resp.ID, 20*time.Second)
	time.Sleep(20 * time.Millisecond)
	for {
		l, err := c.Lease(LeaseRequest{API: APIVersion, Worker: "hand"})
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		b := OutcomeBatch{Lease: l.ID, Worker: "hand"}
		for _, j := range l.Jobs {
			b.Outcomes = append(b.Outcomes, WireOutcome{Member: j.Member, Index: j.Index, Class: int(campaign.ClassMasked), EndCycle: j.Spec.Cycle})
		}
		if err := c.Outcomes(b); err != nil {
			t.Fatal(err)
		}
	}
	done := time.Now()
	a := recv(held)
	if a.p.Status != StatusDone || a.p.Replayed != 8 {
		t.Fatalf("held progress: %+v; want the done campaign, 8 replayed", a.p)
	}
	if d := a.at.Sub(done); d > wakeBound {
		t.Errorf("held progress answered %v after the campaign was done, want at most %v", d, wakeBound)
	}
	client := NewClient(srv.URL)
	client.Poll = 20 * time.Second
	if _, err := client.Wait(resp.ID, nil); err != nil {
		t.Errorf("Wait on the done campaign: %v", err)
	}
}

// TestSubmitAllLeasesUnitWhole: campaigns of one simulator submitted in
// one SubmitAll start together even when their golden run is cached and
// prepares in no time, so a held lease request gets one unit carrying
// both, never the first alone.
func TestSubmitAllLeasesUnitWhole(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{ShardSize: 4, Logf: t.Logf})
	defer c.Close()
	first, err := c.Submit(holdSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, first.ID)
	// Lease all of it: the running campaign keeps the golden run cached
	// but has nothing left to add to a unit.
	for {
		l, err := c.Lease(LeaseRequest{API: APIVersion, Worker: "first"})
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
	}

	held := holdLease(c, 20*time.Second)
	time.Sleep(20 * time.Millisecond)
	resps, err := c.SubmitAll([]CampaignSpec{holdSpec(5), holdSpec(6)})
	if err != nil {
		t.Fatal(err)
	}
	r := receive(t, held)
	want := []string{resps[0].ID, resps[1].ID}
	if r.l == nil {
		t.Fatal("held request got no lease")
	}
	var got []string
	for _, m := range r.l.Members {
		got = append(got, m.CampaignID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("first lease after SubmitAll carries %v, want both campaigns %v", got, want)
	}
	g, _ := CampaignGolden(c, first.ID)
	for _, id := range want {
		if gi, _ := CampaignGolden(c, id); gi != g {
			t.Errorf("campaign %s prepared a golden run of its own; want the cached one", id)
		}
	}
}

// TestSubmitAllQueuesOnePerSimulator: a batch takes one place in the
// submission queue per simulator, not per campaign, so a matrix larger
// than the queue is admitted whole and every campaign of it starts.
func TestSubmitAllQueuesOnePerSimulator(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	defer c.Close()
	specs := make([]CampaignSpec, submitQueueDepth+1)
	for i := range specs {
		specs[i] = holdSpec(int64(100 + i))
		specs[i].Config.Injections = 1
	}
	resps, err := c.SubmitAll(specs)
	if err != nil {
		t.Fatalf("a batch of %d campaigns of one simulator: %v", len(specs), err)
	}
	ids := make([]string, len(resps))
	for i, r := range resps {
		ids[i] = r.ID
	}
	waitRunning(t, c, ids...)
}
