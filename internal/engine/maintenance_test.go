package engine

import (
	"context"
	"testing"
	"time"

	"vdm/internal/sql"
)

// metric reads one engine metric by name, failing when it is not
// registered.
func metric(t *testing.T, e *Engine, name string) int64 {
	t.Helper()
	for _, m := range e.Metrics() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

// TestPlanCacheHitsAcrossSubShareMerge: a delta merge below the 1/8
// merge-debt share leaves the statistics and the stats epoch alone, so
// a cached plan keeps hitting; the merge that carries the debt past the
// share refreshes the statistics and the plan is rebuilt.
func TestPlanCacheHitsAcrossSubShareMerge(t *testing.T) {
	e := skewedEngine(t)
	for _, name := range []string{"probe", "big"} {
		tbl, _ := e.db.Table(name)
		if err := tbl.MergeDelta(); err != nil {
			t.Fatal(err)
		}
	}
	e.EnablePlanCache(true)
	st, err := sql.Parse(`select count(*) from probe p inner join big b on p.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	q := st.(*sql.Query)
	plan := func() any {
		t.Helper()
		p, err := e.planStatement(context.Background(), "", q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := plan()
	if plan() != p1 {
		t.Fatal("second lookup should hit the cache")
	}
	big, _ := e.db.Table("big")
	refreshes := metric(t, e, "storage.stats_refreshes")

	bulkInts(t, e, "big", 5000, 100) // 100 merged rows, 2100 stored
	if err := big.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if metric(t, e, "storage.stats_refreshes") != refreshes {
		t.Fatal("sub-share merge refreshed statistics")
	}
	if plan() != p1 {
		t.Fatal("cached plan missed after a sub-share merge")
	}

	bulkInts(t, e, "big", 6000, 200) // 300 merged rows, 2300 stored: past 1/8
	if err := big.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if metric(t, e, "storage.stats_refreshes") != refreshes+1 {
		t.Fatal("merge past the share did not refresh statistics")
	}
	if plan() == p1 {
		t.Fatal("stale plan served after the statistics refresh")
	}
	if n := metric(t, e, "storage.merge_ns.count"); n != 4 {
		t.Fatalf("storage.merge_ns.count = %d, want 4", n)
	}
	for _, name := range []string{"storage.vacuum_ns.max", "storage.checkpoint_ns.p50"} {
		metric(t, e, name)
	}
}

// TestBackgroundVacuumWaitsForDebt: with GC on a 2 ms tick, a table
// whose dead versions stay below 1/8 of its stored versions is never
// compacted; once the dead versions reach the share the next tick
// reclaims them.
func TestBackgroundVacuumWaitsForDebt(t *testing.T) {
	e := NewWithOptions(Options{GCInterval: 2 * time.Millisecond})
	defer e.Close()
	mustExec(t, e, `create table churn (k bigint primary key, pad varchar)`)
	bulkInts(t, e, "churn", 0, 100)
	tbl, _ := e.db.Table("churn")
	versions := func() int { return tbl.SnapshotAt(e.db.CurrentTS()).NumRowVersions() }

	mustExec(t, e, `delete from churn where k < 12`) // 12*8 < 100
	time.Sleep(150 * time.Millisecond)
	if v := metric(t, e, "storage.vacuums"); v != 0 || versions() != 100 {
		t.Fatalf("below the share: vacuums=%d versions=%d, want 0 and 100", v, versions())
	}

	mustExec(t, e, `delete from churn where k < 13`) // 13*8 >= 100
	deadline := time.Now().Add(5 * time.Second)
	for versions() != 87 {
		if time.Now().After(deadline) {
			t.Fatalf("at the share: versions=%d after 5s, want 87", versions())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v := metric(t, e, "storage.vacuumed_versions"); v != 13 {
		t.Fatalf("vacuumed_versions = %d, want 13", v)
	}
}
