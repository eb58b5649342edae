package engine

import (
	"strings"
	"testing"
	"time"

	"compilegate/internal/errclass"
	"compilegate/internal/mem"
	"compilegate/internal/vtime"
)

const joinSQL = "SELECT COUNT(*) FROM sales_fact JOIN dim_date ON sales_fact.date_id = dim_date.date_id WHERE sales_fact.date_id BETWEEN 100 AND 200 GROUP BY dim_date.year"

func TestCrashRestartCycle(t *testing.T) {
	srv, sched := testServer(t, nil)
	sched.Go("client", func(tk *vtime.Task) {
		if err := srv.Submit(tk, joinSQL); err != nil {
			t.Errorf("pre-crash Submit: %v", err)
		}
		srv.Crash()
		if !srv.Down() {
			t.Error("Down() = false after Crash")
		}
		if got := srv.Crashes(); got != 1 {
			t.Errorf("Crashes() = %d, want 1", got)
		}
		err := srv.Submit(tk, joinSQL)
		if err != ErrCrashed {
			t.Errorf("Submit while down = %v, want ErrCrashed", err)
		}
		if errclass.Of(err) != errclass.Crashed {
			t.Error("ErrCrashed not classified as errclass.Crashed")
		}
		if got := classify(err); got != ErrKindCrashed {
			t.Errorf("classify(ErrCrashed) = %q", got)
		}
		if msg := err.Error(); !strings.Contains(msg, "crashed") {
			t.Errorf("ErrCrashed message = %q", msg)
		}
		srv.Restart()
		if srv.Down() {
			t.Error("Down() = true after Restart")
		}
		// The restarted engine accepts work again, against a cold plan
		// cache (Crash cleared it).
		if err := srv.Submit(tk, joinSQL); err != nil {
			t.Errorf("post-restart Submit: %v", err)
		}
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Recorder().Errors()[ErrKindCrashed]; got != 1 {
		t.Fatalf("crashed errors recorded = %d, want 1", got)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

// TestCrashAbortsInFlightCompile crashes the engine while a compilation
// is running: the query must error with ErrCrashed at its next engine
// interaction and every byte it reserved must be released.
func TestCrashAbortsInFlightCompile(t *testing.T) {
	srv, sched := testServer(t, nil)
	var submitErr error
	sched.Go("victim", func(tk *vtime.Task) {
		submitErr = srv.Submit(tk, joinSQL)
		srv.Close()
	})
	sched.Go("chaos", func(tk *vtime.Task) {
		tk.Sleep(time.Millisecond)
		srv.Crash()
		srv.Restart()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if submitErr != ErrCrashed {
		t.Fatalf("in-flight Submit = %v, want ErrCrashed", submitErr)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after mid-compile crash: %v", err)
	}
}

func TestDiskFaultDilation(t *testing.T) {
	plain, _ := testServer(t, func(c *Config) { c.Pressure.Enabled = false })
	if got := plain.diskDilation(); got != 1 {
		t.Fatalf("idle dilation = %v, want 1", got)
	}
	plain.SetDiskFault(6)
	if got := plain.diskDilation(); got != 6 {
		t.Fatalf("stalled dilation = %v, want 6", got)
	}
	plain.SetDiskFault(0) // below 1 clamps: there is no disk speed-up fault
	if got := plain.diskDilation(); got != 1 {
		t.Fatalf("cleared dilation = %v, want 1", got)
	}

	// With the pressure model on, the stall factor composes with the
	// paging slowdown.
	pressured, _ := testServer(t, nil)
	if got, want := pressured.diskDilation(), pressured.budget.Slowdown(); got != want {
		t.Fatalf("pressured idle dilation = %v, want %v", got, want)
	}
	pressured.SetDiskFault(2)
	if got, want := pressured.diskDilation(), 2*pressured.budget.Slowdown(); got != want {
		t.Fatalf("pressured stalled dilation = %v, want %v", got, want)
	}
}

func TestLeakBallastAccounting(t *testing.T) {
	srv, _ := testServer(t, nil)
	if got := srv.ballast.Used(); got != 0 {
		t.Fatalf("initial ballast = %d", got)
	}
	if err := srv.LeakBallast(64 * mem.MiB); err != nil {
		t.Fatalf("LeakBallast: %v", err)
	}
	if got := srv.ballast.Used(); got != 64*mem.MiB {
		t.Fatalf("ballast = %d, want %d", got, 64*mem.MiB)
	}
	if used := srv.budget.Used(); used < 64*mem.MiB {
		t.Fatalf("budget used = %d; ballast not charged", used)
	}
	// Ballast may overcommit into swap, but not past the commit limit.
	if err := srv.LeakBallast(3 * srv.budget.Total()); err == nil {
		t.Fatal("ballast past the commit limit must fail")
	} else if errclass.Of(err) != errclass.OOM {
		t.Fatalf("over-limit ballast error %v not classified OOM", err)
	}
	srv.DropBallast()
	if got := srv.ballast.Used(); got != 0 {
		t.Fatalf("ballast after drop = %d", got)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

// TestAccessorSurface smoke-tests the diagnostic accessors experiments
// rely on: all wired, none nil, and a fresh server's compile-memory
// profile is the zero pair.
func TestAccessorSurface(t *testing.T) {
	srv, _ := testServer(t, nil)
	if srv.Recorder() == nil || srv.Governor() == nil || srv.BufferPool() == nil ||
		srv.PlanCache() == nil || srv.Optimizer() == nil || srv.CompileTimes() == nil ||
		srv.ExecTimes() == nil {
		t.Fatal("nil diagnostic accessor")
	}
	if mean, max := srv.CompileMemProfile(); mean != 0 || max != 0 {
		t.Fatalf("fresh CompileMemProfile = (%d, %d)", mean, max)
	}
}

func TestPrepareStatementsSkipsMalformed(t *testing.T) {
	good := "SELECT COUNT(*) FROM sales_fact WHERE sales_fact.date_id BETWEEN 1 AND 2"
	st := PrepareStatements([]string{good, "SELEC nonsense FROM"})
	if len(st) != 1 {
		t.Fatalf("prepared %d statements, want 1", len(st))
	}
	id, ok := st[good]
	if !ok || id.Fingerprint == 0 || id.Query == nil || id.Seed == 0 {
		t.Fatalf("statement identity = %+v, ok=%v", id, ok)
	}
}
