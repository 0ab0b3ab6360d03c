package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strconv"

	"repro/internal/campaign"
)

// expectedJSON pins the simulated results: a change that only speeds the
// simulators up must leave every one of them identical.
//
//go:embed expected.json
var expectedJSON []byte

// pin is one campaign's simulated result reduced to what must not change.
type pin struct {
	N      int            `json:"n"`
	Cycles uint64         `json:"goldenCycles"`
	Txns   int            `json:"goldenTxns"`
	Counts map[string]int `json:"counts"`
	Digest string         `json:"digest"` // FNV-1a over (index, class, end cycle)
}

// expectations is the content of expected.json. Seeds maps plan seed (see
// planSeed), then workload, then campaign key to its pin; Fingerprints
// maps golden group to campaign.Golden.Fingerprint and holds for every
// seed.
type expectations struct {
	Scale        float64                              `json:"scale"`
	Fingerprints map[string]string                    `json:"fingerprints"`
	Seeds        map[string]map[string]map[string]pin `json:"seeds"`
}

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

func pinOf(r *campaign.Result) pin {
	h := fnv.New64a()
	var buf [24]byte
	for i, oc := range r.Outcomes {
		binary.LittleEndian.PutUint64(buf[0:], uint64(i))
		binary.LittleEndian.PutUint64(buf[8:], uint64(oc.Class))
		binary.LittleEndian.PutUint64(buf[16:], oc.EndCycle)
		h.Write(buf[:])
	}
	p := pin{
		N: len(r.Outcomes), Cycles: r.GoldenCycles, Txns: r.GoldenTxns,
		Counts: make(map[string]int), Digest: fmt.Sprintf("%016x", h.Sum64()),
	}
	for c, n := range r.Counts {
		p.Counts[c.String()] = n
	}
	return p
}

// checkResults verifies one pass. Every seed must satisfy the invariants
// (a full plan classified, classes summing to it, the pinned golden run);
// a pinned seed at the pinned plan size must also reproduce its class
// counts and outcome digest. A campaign that fails counts all its faults
// failed. It returns the failed fault count and what went wrong.
func checkResults(e *expectations, w workload, seed int64, inj int, results map[string]*campaign.Result) (failed int, problems []string) {
	pinned := e.Seeds[strconv.FormatInt(seed, 10)][w.Name]
	reference := e.Seeds[strconv.FormatInt(planSeed(1, 0), 10)][w.Name] // golden runs do not depend on the seed
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got := pinOf(results[k])
		var bad string
		sum := 0
		for _, n := range got.Counts {
			sum += n
		}
		switch ref, ok := reference[k]; {
		case got.N != inj || sum != inj:
			bad = fmt.Sprintf("classified %d faults in classes summing to %d, planned %d", got.N, sum, inj)
		case ok && (ref.Cycles != got.Cycles || ref.Txns != got.Txns):
			bad = fmt.Sprintf("golden run %d cycles/%d txns, pinned %d/%d", got.Cycles, got.Txns, ref.Cycles, ref.Txns)
		}
		if want, ok := pinned[k]; bad == "" && ok && want.N == inj && !reflect.DeepEqual(want, got) {
			bad = fmt.Sprintf("counts %v digest %s, pinned %v %s", got.Counts, got.Digest, want.Counts, want.Digest)
		}
		if bad != "" {
			failed += inj
			problems = append(problems, k+": "+bad)
		}
	}
	if len(reference) > 0 && len(results) != len(reference) {
		problems = append(problems, fmt.Sprintf("%d campaigns, pinned %d", len(results), len(reference)))
		failed += inj
	}
	return failed, problems
}

// checkFingerprints compares the golden fingerprints seen during set-up
// with the pinned ones.
func checkFingerprints(e *expectations, fps map[string]uint64) []string {
	var problems []string
	for g, fp := range fps {
		if want, ok := e.Fingerprints[g]; ok && want != fmt.Sprintf("%016x", fp) {
			problems = append(problems, fmt.Sprintf("golden %s fingerprint %016x, pinned %s", g, fp, want))
		}
	}
	sort.Strings(problems)
	return problems
}
