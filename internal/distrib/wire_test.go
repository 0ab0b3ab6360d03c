package distrib

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// TestSpecIDIgnoresDeprecatedFields: specs that differ only in pool
// size or in the deprecated Sched and SnapPolicy, which select nothing,
// normalise to one campaign ID, so a resubmission that sets them still
// resumes from its checkpoints.
func TestSpecIDIgnoresDeprecatedFields(t *testing.T) {
	base := CampaignSpec{Workload: "qsort", Model: "rtl", Config: campaign.Config{
		Injections: 30, Seed: 3, Target: fault.TargetRF, Window: 500,
	}}
	id := func(spec CampaignSpec) string {
		t.Helper()
		if _, err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		return specID(spec)
	}
	want := id(base)
	for name, mutate := range map[string]func(*campaign.Config){
		"workers":     func(c *campaign.Config) { c.Workers = 7 },
		"sched":       func(c *campaign.Config) { c.Sched = campaign.SchedCursor },
		"snap-policy": func(c *campaign.Config) { c.SnapPolicy = campaign.SnapQuantile },
		"both": func(c *campaign.Config) {
			c.Sched = campaign.SchedCursor
			c.SnapPolicy = campaign.SnapQuantile
		},
	} {
		spec := base
		mutate(&spec.Config)
		if got := id(spec); got != want {
			t.Errorf("%s: ID %s, want %s", name, got, want)
		}
	}
	spec := base
	spec.Config.Seed++
	if id(spec) == want {
		t.Error("a different seed kept the ID")
	}
}
