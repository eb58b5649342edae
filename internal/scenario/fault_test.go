package scenario

import (
	"fmt"
	"math/rand"
	"testing"

	"compilegate/internal/fault"
)

// TestFaultDeterminism proves worker-count invariance holds under the
// fault plane: randomized seeded fault plans over registry scenarios
// produce byte-identical digests at every worker count. Injections run
// as ordinary scheduler tasks, so this must hold by construction — a
// divergence means an injection leaked state across runs or drew
// randomness outside its plan seed.
func TestFaultDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rng := rand.New(rand.NewSource(0xFA17))
	base := MustGet(t, "quickstart")
	jobs := make([]Scenario, 0, 8)
	for trial := 0; trial < 4; trial++ {
		plan := fault.Random(rng, base.Horizon)
		s := base
		s.Name = fmt.Sprintf("fault-rand-%d", trial)
		s.Fault = &plan
		jobs = append(jobs, s)
	}
	// The registered fault scenarios ride along: their scripted plans
	// cover each kind at full scale.
	for _, name := range []string{"fault-diskstall", "fault-leak", "fault-crash-restart", "retry-storm"} {
		jobs = append(jobs, MustGet(t, name))
	}

	ref := RunSweep(jobs, 1)
	refDigests := make([]string, len(ref))
	for i, sr := range ref {
		if sr.Err != nil {
			t.Fatalf("%s (workers=1): %v", sr.Scenario.Name, sr.Err)
		}
		refDigests[i] = digest(sr)
	}

	for _, workers := range []int{2, 4} {
		got := RunSweep(jobs, workers)
		for i, sr := range got {
			if sr.Err != nil {
				t.Fatalf("%s (workers=%d): %v", sr.Scenario.Name, workers, sr.Err)
			}
			if d := digest(sr); d != refDigests[i] {
				t.Errorf("%s: digest diverged at workers=%d:\ngot:  %s\nwant: %s",
					sr.Scenario.Name, workers, d, refDigests[i])
			}
		}
	}
}
