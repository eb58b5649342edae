package engine_test

import (
	"testing"

	"compilegate/internal/engine"
)

// TestRetainedCapacityLeavesRunsIdentical runs the dss-collapse shape — two
// submissions in three are resubmissions of a compilation that ran out of
// memory — keeping no failed compilation's attempt, the eight a server
// keeps, and sixty-four, and requires the three Results to be equal in
// every field but Work.Opens: compiling on a retained exploration is
// compiling afresh as far as anything simulated can tell, so how many are
// kept is host memory against host time — and explorations opened, more
// when none is kept — and nothing else.
func TestRetainedCapacityLeavesRunsIdentical(t *testing.T) {
	shape := dssShape(40, false)
	want, err := shape.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.ErrorsByKind["oom"] == 0 || want.Load.Retries == 0 {
		t.Fatalf("errors %v, %d retries: no failed compilation was resubmitted", want.ErrorsByKind, want.Load.Retries)
	}
	for _, limit := range []int{0, 64} {
		func() {
			defer engine.SetRetainedLimit(engine.SetRetainedLimit(limit))
			got, err := shape.Run()
			if err != nil {
				t.Fatal(err)
			}
			if more := got.Work.Opens > want.Work.Opens; more != (limit < 8) {
				t.Errorf("capacity %d: %d explorations opened, %d with 8 retained", limit, got.Work.Opens, want.Work.Opens)
			}
			got.Work.Opens = want.Work.Opens
			diffResults(t, "8 retained", want, "another capacity", got)
		}()
	}
}
