package scenario

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// update re-records testdata/golden.txt and testdata/work.txt. Run
//
//	go test ./internal/scenario -run TestRegistryGoldenDigests -update
//
// after an *intentional* model or calibration change, or a change of what
// the simulator does on the host (work.txt alone moves then); any other
// diff is a determinism regression.
var update = flag.Bool("update", false, "re-record golden scenario digests and the work ledger")

// goldenWindow compresses long-horizon scenarios so the golden sweep
// stays test-sized: everything above two hours runs the benchmark
// window (2 h measured from 30 min), shorter scenarios run as
// registered.
func goldenWindow(s Scenario) Scenario {
	if s.Horizon > 2*time.Hour {
		return s.WithWindow(2*time.Hour, 30*time.Minute)
	}
	return s
}

// digest summarizes one run's observable results. Every field is a
// deterministic function of the scheduler's event order, so any change
// to scheduling, the memory model, or the workload shows up here.
func digest(sr SweepResult) string {
	if sr.Err != nil {
		return fmt.Sprintf("error=%v", sr.Err)
	}
	r := sr.Result
	return fmt.Sprintf(
		"completed=%d errors=%d compile-p50=%v exec-p50=%v submitted=%d retries=%d gateway-timeouts=%d best-effort=%d overcommit-permille=%d",
		r.Completed, r.Errors, r.CompileP50, r.ExecP50,
		r.Load.Submitted, r.Load.Retries, r.GatewayTimeouts, r.BestEffortPlans,
		int64(r.AvgOvercommitRatio*1000))
}

// workLine is one run's Result.Work: what the simulator did on the host,
// counted exactly.
func workLine(sr SweepResult) string { return fmt.Sprintf("%+v", sr.Result.Work) }

const (
	goldenPath = "testdata/golden.txt"
	workPath   = "testdata/work.txt"
)

// TestRegistryGoldenDigests pins the end-to-end results of every
// registered scenario, read from the reference sweep (equivalence_test.go).
// It is the repository's determinism contract: a
// refactor that claims to preserve behavior must reproduce every line
// byte-for-byte, and an intentional model change must re-record the
// file with -update (and say so in its commit). From the same sweep it
// pins every scenario's Result.Work in testdata/work.txt, the work ledger:
// a change that makes the simulator do more or less on the host, with
// nothing simulated moving, re-records that file alone, and shows it in a
// diff. The same sweep pins that no run takes a stack: every scenario's
// scheduler must end it with no coroutine created and none switched into —
// compilations, clients, routers and fault injectors all run as steps.
// Under -race the reference runs raceWindow, so the two files, recorded on
// goldenWindow, are not compared.
func TestRegistryGoldenDigests(t *testing.T) {
	if raceEnabled && *update {
		t.Fatal("-update records goldenWindow runs: run it without -race")
	}
	results := reference(t)
	if !raceEnabled {
		checkLines(t, goldenPath, results, digest)
		checkLines(t, workPath, results, workLine)
	}
	for _, r := range results {
		if r.Coroutines != 0 || r.CoroSwitches != 0 {
			t.Errorf("%s: %d coroutines created, %d switches into them, want none", r.Scenario.Name, r.Coroutines, r.CoroSwitches)
		}
	}
}

// keyHash is a short hash of the run scenario's Key, so a line moves when
// a setting does even if every digest field stays put.
func keyHash(s Scenario) string {
	key, ok := s.Key()
	if !ok {
		return "key=none"
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return fmt.Sprintf("key=%08x", h.Sum32())
}

// checkLines compares one line per scenario, "name: key=hash line(result)",
// with the file at path, or records them there under -update.
func checkLines(t *testing.T, path string, results []SweepResult, line func(SweepResult) string) {
	t.Helper()
	keyed := func(sr SweepResult) string { return keyHash(sr.Scenario) + " " + line(sr) }
	var sb strings.Builder
	for _, sr := range results {
		fmt.Fprintf(&sb, "%s: %s\n", sr.Scenario.Name, keyed(sr))
	}
	got := sb.String()

	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d lines to %s", len(results), path)
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no file %s (run with -update to record): %v", path, err)
	}
	if got == string(want) {
		return
	}
	// Report per-scenario so a diff names the regressed experiments.
	wantLines := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		if name, rest, ok := strings.Cut(l, ": "); ok {
			wantLines[name] = rest
		}
	}
	for _, sr := range results {
		d := keyed(sr)
		w, ok := wantLines[sr.Scenario.Name]
		dKey, dRun, _ := strings.Cut(d, " ")
		wKey, wRun, _ := strings.Cut(w, " ")
		switch {
		case !ok:
			t.Errorf("%s: no line recorded in %s (run -update)", sr.Scenario.Name, path)
		case d == w:
		case dRun == wRun:
			t.Errorf("%s: settings encoding moved, run unchanged: %s, recorded %s in %s (run -update)",
				sr.Scenario.Name, dKey, wKey, path)
		default:
			t.Errorf("%s diverged from %s:\ngot:  %s\nwant: %s", sr.Scenario.Name, path, d, w)
		}
		delete(wantLines, sr.Scenario.Name)
	}
	for name := range wantLines {
		t.Errorf("%s: line recorded in %s but scenario no longer registered", name, path)
	}
}
