package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Track names the worker (or fleet role) the call ran
// on; Key names the campaign it served. Parent is the ID of the span that
// caused it (0 for a track's root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Track  string `json:"track"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"startNs"` // since the recorder's epoch
	End    int64  `json:"endNs"`
}

// Recorder keeps spans in memory until the benchmark writes them out. A
// nil Recorder records nothing, so the set-up path shared by the traced
// and untraced runs needs no branches.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts a recorder whose clock begins now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID for End and for children.
func (r *Recorder) Begin(parent int, track, name, key string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Track: track, Key: key, Start: now, End: now})
	return id
}

// End closes a span opened by Begin.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose interval was observed after the fact (an HTTP
// round trip reported with its duration, a wait between two calls).
func (r *Recorder) Add(parent int, track, name, key string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Track: track, Key: key,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children are
// clipped to the parent and overlapping children (two workers under one
// parent) are counted once.
func selfTimes(spans []Span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, edge int64 = 0, s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// rootName is the name of the per-track span that covers a traced pass.
// Whatever part of it no named child covers is the unattributed time.
const rootName = "track"

// ledger is a traced pass reconciled to named phases: Phase holds the
// summed self time of every non-root span by name, in worker-seconds, and
// Unattributed the self time of the track roots. By construction
// sum(Phase) + Unattributed == TrackSeconds.
type ledger struct {
	Phase        map[string]float64
	Unattributed float64
	TrackSeconds float64
}

// reconcile builds the ledger over the spans of the given tracks. Spans
// on other tracks (the fleet's client and coordinator side) stay in the
// file for reading but are not part of the worker-time balance.
func reconcile(spans []Span, tracks map[string]bool) ledger {
	self := selfTimes(spans)
	l := ledger{Phase: make(map[string]float64)}
	for _, s := range spans {
		if !tracks[s.Track] {
			continue
		}
		sec := float64(self[s.ID]) / 1e9
		if s.Name == rootName && s.Parent == 0 {
			l.Unattributed += sec
			l.TrackSeconds += float64(s.End-s.Start) / 1e9
			continue
		}
		l.Phase[s.Name] += sec
	}
	return l
}

// writeSpans stores a traced pass for reading: one JSON document with the
// spans in recording order.
func writeSpans(path, workload string, spans []Span) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
