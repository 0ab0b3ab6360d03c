// Package distrib turns the campaign library into a distributed
// service: a coordinator that accepts campaign submissions, splits them
// into self-contained shards of planned fault indices, and leases the
// shards of campaigns sharing a golden run together, as one unit, to a
// fleet of pull-based worker processes over a JSON-over-HTTP wire
// protocol; plus the worker engine and a client library.
//
// The science is unchanged by distribution. The coordinator runs the
// exact producer/consumer pair campaign.Run runs (Planned.NextReplay /
// Planned.Deliver) and merges worker outcomes in fault-index order, so
// sequential statistical stopping and pruning extrapolation see the
// same in-order outcome prefix they would see single-process; a golden
// fingerprint carried by every lease stops a version- or workload-skewed
// worker from contributing outcomes from a different golden run. A
// campaign sharded over any fleet therefore produces classification
// counts and report tables byte-identical to campaign.Run with the same
// seed.
package distrib

import (
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// APIVersion is the wire-protocol version; coordinator and worker
// exchange it on every lease so a mixed-version fleet fails loudly
// instead of corrupting a campaign. Version 2 dropped protection from
// the campaign config: a version-1 coordinator expects its workers to
// apply it. Version 3 leases golden units: a lease lists its member
// campaigns and every job and outcome names its member, where a
// version-2 lease carried one campaign. Version 4 keys a unit by
// simulator alone, so one lease may mix members whose golden-artifact
// needs differ, which a version-3 worker refuses; it also normalises
// the setup and model names, which changes some campaign IDs.
const APIVersion = 4

// CampaignSpec identifies one campaign on the wire: the workload and
// model name resolve to a simulator factory on whichever machine reads
// them (factories cannot cross the wire), the setup names the
// equivalent-configuration pair, and Config is the full campaign
// configuration. Identical normalised specs map to one campaign ID, so
// resubmission after a coordinator restart resumes from its checkpoints
// instead of starting over.
type CampaignSpec struct {
	Workload string          `json:"workload"`
	Model    string          `json:"model"`           // "microarch" or "rtl"
	Setup    string          `json:"setup,omitempty"` // "campaign" (default) or "tableI"
	Config   campaign.Config `json:"config"`
}

// normalize validates the spec's identities and campaign config,
// filling config defaults so the wire always carries the normalised
// form. The model and setup are rewritten to their canonical names, so
// every spelling of one simulator ("" and "campaign", "ma" and
// "microarch") is one campaign ID and one golden key. Workers is zeroed:
// pool sizes are a per-process concern and must not split
// otherwise-identical campaigns into distinct IDs. So are the
// deprecated Sched and SnapPolicy, which select nothing.
func (s *CampaignSpec) normalize() error {
	if _, err := bench.ByName(s.Workload); err != nil {
		return err
	}
	m, err := core.ParseModel(s.Model)
	if err != nil {
		return err
	}
	setup, err := core.ParseSetup(s.Setup)
	if err != nil {
		return err
	}
	s.Model, s.Setup = m.String(), setup.Name
	if err := s.Config.Validate(); err != nil {
		return err
	}
	s.Config.Workers = 0
	s.Config.Sched = 0
	s.Config.SnapPolicy = 0
	return nil
}

// factory rebuilds the spec's simulator factory locally.
func (s CampaignSpec) factory() (campaign.Factory, error) {
	w, err := bench.ByName(s.Workload)
	if err != nil {
		return nil, err
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	m, err := core.ParseModel(s.Model)
	if err != nil {
		return nil, err
	}
	setup, err := core.ParseSetup(s.Setup)
	if err != nil {
		return nil, err
	}
	return core.Factory(m, prog, setup), nil
}

// Job is one planned injection of a lease: the member campaign it
// belongs to (an index into Lease.Members), its plan index there (the
// merge and stopping order) and the fully generated spec (so workers
// never need to materialise the fault plan themselves).
type Job struct {
	Member int        `json:"member,omitempty"`
	Index  int        `json:"index"`
	Spec   fault.Spec `json:"spec"`
}

// LeaseRequest is a worker's pull for work. Golden names the golden
// runs the worker holds ready, each by its behavioural fingerprint,
// which every golden run of one simulator shares; the coordinator
// prefers a unit of one of them. It is only a hint: a fingerprint that
// names no unit matches nothing.
type LeaseRequest struct {
	API    int      `json:"api"`
	Worker string   `json:"worker"`
	Golden []uint64 `json:"golden,omitempty"`
}

// Lease is one golden unit handed to one worker: a shard of every
// member campaign, all replaying against one golden run. It carries the
// campaign identities a worker needs to prepare (or reuse) its local
// golden artifacts, the golden fingerprint those artifacts must match,
// and the jobs to replay, every member's in one flat list. The lease
// expires TTLMillis after issue unless heartbeated; an expired lease's
// shards are re-issued to the next pullers.
type Lease struct {
	API       int           `json:"api"`
	ID        string        `json:"id"`
	Members   []LeaseMember `json:"members"`
	GoldenFP  uint64        `json:"goldenFp"`
	Jobs      []Job         `json:"jobs"`
	TTLMillis int64         `json:"ttlMillis"`
}

// LeaseMember is one campaign of a lease.
type LeaseMember struct {
	CampaignID string       `json:"campaignId"`
	Spec       CampaignSpec `json:"spec"`
}

// HeartbeatRequest extends a lease's deadline.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// WireOutcome is one replayed classification crossing the wire. The
// coordinator rebuilds the full RunOutcome from its own plan (the spec
// is its, not the worker's, source of truth) and stamps pruning class
// weights itself, so a worker can only ever contribute the
// (class, endCycle, converged) triple a local replay would produce.
// Member and Index name the job it answers.
type WireOutcome struct {
	Member    int    `json:"member,omitempty"`
	Index     int    `json:"index"`
	Class     int    `json:"class"`
	EndCycle  uint64 `json:"endCycle"`
	Converged bool   `json:"converged,omitempty"`
}

// OutcomeBatch returns a completed (or failed) lease's outcomes. A
// non-empty Error reports shard failure — golden fingerprint mismatch,
// simulator error — and requeues every member's shard for another
// worker.
type OutcomeBatch struct {
	Lease    string        `json:"lease"`
	Worker   string        `json:"worker"`
	Outcomes []WireOutcome `json:"outcomes,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Campaign statuses.
const (
	StatusPreparing = "preparing" // golden run + plan under construction
	StatusRunning   = "running"   // shards being issued and merged
	StatusDone      = "done"      // result available
	StatusFailed    = "failed"    // terminal error; see Progress.Error
)

// Progress is a campaign's live state as served by the coordinator.
type Progress struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Workload string `json:"workload"`
	Model    string `json:"model"`

	Injections int  `json:"injections"`
	Delivered  int  `json:"delivered"` // outcomes merged (synthetic+extrapolated+replayed)
	Replayed   int  `json:"replayed"`  // outcomes executed by workers this run
	Resumed    int  `json:"resumed"`   // outcomes restored from coordinator checkpoints
	Queued     int  `json:"queued"`    // shards awaiting a worker
	Leased     int  `json:"leased"`    // shards out on active leases
	Stopped    bool `json:"stopped"`   // sequential stop triggered

	GoldenCycles uint64  `json:"goldenCycles,omitempty"`
	ElapsedSecs  float64 `json:"elapsedSecs"`
	Error        string  `json:"error,omitempty"`
}

// SubmitResponse acknowledges a campaign submission.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}
