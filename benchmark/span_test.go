package main

import (
	"math"
	"testing"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "c", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 70, 2: 20, 3: 10} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

// Two workers under one parent overlap in time: the overlap is covered
// once, and a child that outlives its parent is clipped to it.
func TestSelfTimeOverlappingWorkers(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "campaign", Track: "main", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "replay", Track: "w0", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "replay", Track: "w1", Start: 40, End: 90},
		{ID: 4, Parent: 1, Name: "replay", Track: "w1", Start: 95, End: 130},
		{ID: 5, Parent: 1, Name: "replay", Track: "w0", Start: 20, End: 30}, // inside span 2
	}
	self := selfTimes(spans)
	if got, want := self[1], int64(100-80-5); got != want {
		t.Errorf("parent self %d, want %d", got, want)
	}
	if self[2] != 50 || self[3] != 50 || self[4] != 35 {
		t.Errorf("children self %d %d %d, want 50 50 35", self[2], self[3], self[4])
	}
}

// The ledger balances: phase self times plus the unattributed share of
// the track roots add up to workers x traced wall.
func TestLedgerReconcilesToWall(t *testing.T) {
	const wall = 1_000_000_000
	spans := []Span{
		{ID: 1, Name: rootName, Track: "w0", Start: 0, End: wall},
		{ID: 2, Name: rootName, Track: "w1", Start: 0, End: wall},
		{ID: 3, Parent: 1, Name: "golden_prep", Track: "w0", Start: 0, End: 200_000_000},
		{ID: 4, Parent: 2, Name: "golden_prep", Track: "w1", Start: 0, End: 150_000_000},
		{ID: 5, Parent: 2, Name: "idle", Track: "w1", Start: 150_000_000, End: 200_000_000},
		{ID: 6, Parent: 1, Name: "replay", Track: "w0", Start: 210_000_000, End: 900_000_000},
		{ID: 7, Parent: 6, Name: "collect", Track: "w0", Start: 300_000_000, End: 310_000_000},
		{ID: 8, Parent: 2, Name: "replay", Track: "w1", Start: 205_000_000, End: 990_000_000},
		{ID: 9, Name: "handle lease", Track: "coordinator", Start: 0, End: 500_000_000}, // not a worker track
	}
	l := reconcile(spans, map[string]bool{"w0": true, "w1": true})
	if l.TrackSeconds != 2 {
		t.Fatalf("track seconds %v, want 2", l.TrackSeconds)
	}
	sum := l.Unattributed
	for _, v := range l.Phase {
		sum += v
	}
	if math.Abs(sum-l.TrackSeconds) > 1e-9 {
		t.Errorf("phases + unattributed = %v, want %v", sum, l.TrackSeconds)
	}
	want := map[string]float64{"golden_prep": 0.35, "idle": 0.05, "replay": 0.68 + 0.785, "collect": 0.01}
	for name, v := range want {
		if math.Abs(l.Phase[name]-v) > 1e-9 {
			t.Errorf("phase %s = %v, want %v", name, l.Phase[name], v)
		}
	}
	if _, ok := l.Phase["handle lease"]; ok {
		t.Error("a span off the worker tracks entered the ledger")
	}
	if got, want := l.Unattributed, 0.01+0.1+0.005+0.01; math.Abs(got-want) > 1e-9 {
		t.Errorf("unattributed %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *Recorder
	id := r.Begin(0, "w0", "replay", "")
	r.End(id)
	if id != 0 || r.Spans() != nil {
		t.Errorf("nil recorder recorded: id %d spans %v", id, r.Spans())
	}
}
