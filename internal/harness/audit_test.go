package harness

import (
	"strings"
	"testing"
	"time"

	"compilegate/internal/metrics"
	"compilegate/internal/workload"
)

// TestAuditTripsOnTamperedResult breaks each conservation identity in turn
// on a hand-built Result that satisfies all three.
func TestAuditTripsOnTamperedResult(t *testing.T) {
	sound := func() *Result {
		return &Result{
			Series:      []metrics.Point{{T: 10 * time.Minute, V: 7}, {T: 20 * time.Minute, V: 5}},
			Completed:   12,
			Load:        workload.LoadStats{Submitted: 20, Succeeded: 17, Failed: 3, Retries: 4},
			Resubmitted: 2,
			NodeResults: []NodeResult{{Node: 0, Routed: 15}, {Node: 1, Routed: 11}},
		}
	}
	if err := sound().audit(); err != nil {
		t.Fatalf("sound result: %v", err)
	}
	single := sound()
	single.NodeResults, single.Resubmitted = nil, 0
	if err := single.audit(); err != nil {
		t.Fatalf("sound single-server result (no router, so no routing identity): %v", err)
	}
	cases := []struct {
		name, want string
		tamper     func(*Result)
	}{
		{"a lost answer", "client conservation", func(r *Result) { r.Load.Succeeded-- }},
		{"a completion outside the series", "window conservation", func(r *Result) { r.Completed++ }},
		{"a submission no node received", "routing conservation", func(r *Result) { r.NodeResults[1].Routed-- }},
		{"an unrouted failover hop", "routing conservation", func(r *Result) { r.Resubmitted++ }},
	}
	for _, tc := range cases {
		r := sound()
		tc.tamper(r)
		if err := r.audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit returned %v, want a %s error", tc.name, err, tc.want)
		}
	}
}
