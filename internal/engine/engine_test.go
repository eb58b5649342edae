package engine

import (
	"errors"
	"testing"
	"time"

	"compilegate/internal/catalog"
	"compilegate/internal/mem"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

func testServer(t *testing.T, mutate func(*Config)) (*Server, *vtime.Scheduler) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SliceDur = time.Minute
	if mutate != nil {
		mutate(&cfg)
	}
	sched := vtime.NewScheduler()
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 8 << 20})
	srv, err := NewShared(cfg, cat, Prebuilt{}, sched)
	if err != nil {
		t.Fatal(err)
	}
	return srv, sched
}

func TestSubmitLifecycle(t *testing.T) {
	srv, sched := testServer(t, nil)
	sql := "SELECT COUNT(*) FROM sales_fact JOIN dim_date ON sales_fact.date_id = dim_date.date_id WHERE sales_fact.date_id BETWEEN 100 AND 200 GROUP BY dim_date.year"
	sched.Go("client", func(tk *vtime.Task) {
		if err := srv.Submit(tk, sql); err != nil {
			t.Errorf("Submit: %v", err)
		}
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Recorder().Completed() != 1 {
		t.Fatalf("completed = %d", srv.Recorder().Completed())
	}
	if srv.Governor().Finished() != 1 {
		t.Fatalf("compilations finished = %d", srv.Governor().Finished())
	}
	if srv.Governor().Tracker().Used() != 0 {
		t.Fatal("compile memory leaked")
	}
	if srv.exec.Grants().Tracker().Used() != 0 {
		t.Fatal("grant leaked")
	}
	if mean, max := srv.CompileMemProfile(); mean <= 0 || max < mean {
		t.Fatalf("compile mem profile mean=%d max=%d", mean, max)
	}
}

func TestParseErrorRecorded(t *testing.T) {
	srv, sched := testServer(t, nil)
	sched.Go("client", func(tk *vtime.Task) {
		if err := srv.Submit(tk, "DELETE FROM x"); err == nil {
			t.Error("bad SQL accepted")
		}
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Recorder().Errors()[ErrKindOther] != 1 {
		t.Fatalf("errors = %v", srv.Recorder().Errors())
	}
}

func TestPlanCacheHitSkipsCompile(t *testing.T) {
	srv, sched := testServer(t, nil)
	sql := "SELECT * FROM dim_channel WHERE dim_channel.channel_id = 3"
	sched.Go("client", func(tk *vtime.Task) {
		if err := srv.Submit(tk, sql); err != nil {
			t.Error(err)
		}
		if err := srv.Submit(tk, sql); err != nil {
			t.Error(err)
		}
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Governor().Started() != 1 {
		t.Fatalf("compilations = %d, want 1 (second was a cache hit)", srv.Governor().Started())
	}
	if srv.PlanCache().Hits() != 1 {
		t.Fatalf("cache hits = %d", srv.PlanCache().Hits())
	}
}

func TestUniquifiedQueriesDefeatCache(t *testing.T) {
	srv, sched := testServer(t, nil)
	sched.Go("client", func(tk *vtime.Task) {
		_ = srv.Submit(tk, "SELECT * FROM dim_channel WHERE dim_channel.channel_id = 3 /* u1 */")
		_ = srv.Submit(tk, "SELECT * FROM dim_channel WHERE dim_channel.channel_id = 3 /* u2 */")
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Governor().Started() != 2 {
		t.Fatalf("compilations = %d, want 2 (uniquifier must defeat the cache)", srv.Governor().Started())
	}
}

func TestCompileOOMClassified(t *testing.T) {
	srv, sched := testServer(t, func(c *Config) {
		// Tiny machine with almost everything pinned: 10 MiB up to the
		// commit limit, less than a sizable compilation holds by its first
		// best-effort poll, so the valve cannot save it from out-of-memory.
		c.MemoryBytes = 16 * mem.MiB
		c.FixedOverheadBytes = 14 * mem.MiB
	})
	// A heavy snowflake query -> compile memory far beyond 10 MiB.
	w := workload.NewSales()
	sched.Go("client", func(tk *vtime.Task) {
		var sawOOM bool
		for i := 0; i < 12 && !sawOOM; i++ {
			err := srv.Submit(tk, w.Next(newRand(int64(i))))
			if err != nil && errors.Is(err, mem.ErrOutOfMemory) {
				sawOOM = true
			}
		}
		if !sawOOM {
			t.Error("no OOM on a machine with 10 MiB to commit")
		}
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Recorder().Errors()[ErrKindOOM] == 0 {
		t.Fatalf("oom not recorded: %v", srv.Recorder().Errors())
	}
	if srv.Governor().Tracker().Used() != 0 {
		t.Fatal("aborted compilations leaked memory")
	}
}

// compileOnce submits one statement on a fresh server and returns the
// per-compilation peak memory the engine recorded.
func compileOnce(t *testing.T, sql string, mutate func(*Config)) int64 {
	t.Helper()
	srv, sched := testServer(t, mutate)
	sched.Go("client", func(tk *vtime.Task) {
		if err := srv.Submit(tk, sql); err != nil {
			t.Errorf("Submit: %v", err)
		}
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	_, peak := srv.CompileMemProfile()
	return peak
}

// TestStagedCompilePeakArithmetic pins the staged stock model's shape:
// with integral scales the peak is exactly bind + (1+costing+codegen) x
// the exploration memo, and with both scales at zero it is bind plus the
// memo alone.
func TestStagedCompilePeakArithmetic(t *testing.T) {
	sql := "SELECT COUNT(*) FROM sales_fact JOIN dim_date ON sales_fact.date_id = dim_date.date_id JOIN dim_store ON sales_fact.store_id = dim_store.store_id WHERE sales_fact.date_id BETWEEN 100 AND 200 GROUP BY dim_date.year"
	flat := compileOnce(t, sql, func(c *Config) {
		c.CompileStages.CostingScale, c.CompileStages.CodegenScale = 0, 0
	}) - bindBytes
	staged := compileOnce(t, sql, nil)

	st := DefaultConfig().CompileStages
	want := bindBytes + int64((1+st.CostingScale+st.CodegenScale)*float64(flat))
	if staged != want {
		t.Fatalf("staged peak = %d, want bind %d + %.0fx memo %d = %d",
			staged, bindBytes, 1+st.CostingScale+st.CodegenScale, flat, want)
	}
	if staged < 9*flat {
		t.Fatalf("staged stock %d not an order of magnitude above the memo %d", staged, flat)
	}
}

// TestSingleTableQuerySkipsStages pins the diagnostics bypass: a point
// query's compilation must stay below the small gate's 380 KiB
// threshold, so the staged ramps may not apply to it.
func TestSingleTableQuerySkipsStages(t *testing.T) {
	peak := compileOnce(t, "SELECT * FROM dim_channel WHERE dim_channel.channel_id = 3", nil)
	if peak >= 380<<10 {
		t.Fatalf("point-query compile peak = %d bytes, must stay under the 380 KiB small gate", peak)
	}
}

func TestThrottleDisabledHasNoChain(t *testing.T) {
	srv, sched := testServer(t, func(c *Config) { c.Throttle = false })
	if srv.Governor().Chain() != nil {
		t.Fatal("baseline built a gateway chain")
	}
	sched.Go("client", func(tk *vtime.Task) { srv.Close() })
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHousekeepingTicksBroker(t *testing.T) {
	srv, sched := testServer(t, nil)
	sched.Go("client", func(tk *vtime.Task) {
		if err := srv.Submit(tk, "SELECT * FROM dim_channel WHERE dim_channel.channel_id = 1"); err != nil {
			t.Error(err)
		}
		tk.Sleep(time.Minute)
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.brk.Ticks() == 0 {
		t.Fatal("broker never ticked")
	}
	if srv.rec.GaugeMeans(0, srv.rec.SliceDur()).PoolBytes == 0 {
		t.Fatal("no pool gauge samples")
	}
}

// TestPoolTakesCatalogExtent: the buffer pool's frames are the catalog's
// extents, whatever their size.
func TestPoolTakesCatalogExtent(t *testing.T) {
	cat := catalog.NewSales(catalog.SalesConfig{Scale: 0.01, ExtentBytes: 1 << 20})
	srv, err := NewShared(DefaultConfig(), cat, Prebuilt{}, vtime.NewScheduler())
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.BufferPool().ExtentBytes(); got != cat.ExtentBytes {
		t.Fatalf("pool extent %d, catalog extent %d", got, cat.ExtentBytes)
	}
}

func TestReportNonEmpty(t *testing.T) {
	srv, sched := testServer(t, nil)
	sched.Go("client", func(tk *vtime.Task) {
		_ = srv.Submit(tk, "SELECT * FROM dim_channel WHERE dim_channel.channel_id = 1")
		srv.Close()
	})
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(srv.Report()) < 100 {
		t.Fatalf("report too small: %q", srv.Report())
	}
}
