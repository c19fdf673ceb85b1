package storage

import (
	"fmt"
	"reflect"
	"testing"

	"vdm/internal/types"
)

// Tests for maintenance whose cost follows the change: the
// debt-triggered vacuum (VacuumDue), incremental zone maps on delta
// merge, and merge-debt-gated statistics. Every pass is called directly,
// so the schedules are deterministic.

// deleteKeys deletes each key in one transaction per key.
func deleteKeys(t *testing.T, db *DB, tbl *Table, keys ...int64) {
	t.Helper()
	for _, k := range keys {
		deleteKey(t, db, tbl, k)
	}
}

// keyRange returns the keys [lo, hi).
func keyRange(lo, hi int64) []int64 {
	var out []int64
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}

// merged200 returns a kv table of 200 merged rows (stats and zone maps
// built), the fixture of the vacuum-due tests.
func merged200(t *testing.T) (*DB, *Table) {
	t.Helper()
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 200)
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestVacuumDueBelowShareSkips: 24 dead versions out of 200 stored is
// below the 1/8 share, so the due pass compacts nothing and moves
// neither the vacuum counters nor the stats epoch.
func TestVacuumDueBelowShareSkips(t *testing.T) {
	db, tbl := merged200(t)
	deleteKeys(t, db, tbl, keyRange(0, 24)...)
	epoch, data := db.StatsEpoch(), tbl.currentData()
	for i := 0; i < 3; i++ {
		if removed, err := db.VacuumDue(); err != nil || removed != 0 {
			t.Fatalf("due pass %d: removed=%d err=%v, want nothing below the share", i, removed, err)
		}
	}
	if tbl.currentData() != data || tbl.rowCount() != 200 {
		t.Fatalf("table rebuilt below the share: %d versions", tbl.rowCount())
	}
	m := db.Metrics()
	if m.Vacuums.Value() != 0 || m.VacuumedVersions.Value() != 0 {
		t.Fatalf("vacuums=%d vacuumed_versions=%d, want 0/0", m.Vacuums.Value(), m.VacuumedVersions.Value())
	}
	if m.VacuumNs.Count() != 0 {
		t.Fatalf("vacuum_ns.count=%d: a read-locked skip is not a pass", m.VacuumNs.Count())
	}
	if db.StatsEpoch() != epoch {
		t.Fatal("stats epoch moved on a skipped due pass")
	}
}

// TestVacuumDueAtShareMatchesVacuum: at exactly 1/8 (25 of 200) the due
// pass compacts, and the compacted store — columns, visibility, unique
// index, zone maps, statistics — is identical to what an unconditional
// Table.Vacuum builds from the same history.
func TestVacuumDueAtShareMatchesVacuum(t *testing.T) {
	dueDB, dueTbl := merged200(t)
	refDB, refTbl := merged200(t)
	dead := keyRange(50, 75)
	deleteKeys(t, dueDB, dueTbl, dead...)
	deleteKeys(t, refDB, refTbl, dead...)

	epoch := dueDB.StatsEpoch()
	removed, err := dueDB.VacuumDue()
	if err != nil || removed != 25 {
		t.Fatalf("due pass: removed=%d err=%v, want 25", removed, err)
	}
	if n, err := refTbl.Vacuum(endInfinity); err != nil || n != 25 {
		t.Fatalf("reference vacuum: removed=%d err=%v", n, err)
	}
	if dueDB.StatsEpoch() == epoch {
		t.Fatal("compacting due pass did not bump the stats epoch")
	}
	if m := dueDB.Metrics(); m.Vacuums.Value() != 1 || m.VacuumedVersions.Value() != 25 || m.VacuumNs.Count() != 1 {
		t.Fatalf("vacuums=%d vacuumed_versions=%d vacuum_ns.count=%d, want 1/25/1",
			m.Vacuums.Value(), m.VacuumedVersions.Value(), m.VacuumNs.Count())
	}
	if !reflect.DeepEqual(dueTbl.currentData(), refTbl.currentData()) {
		t.Fatal("due-pass compaction differs from Table.Vacuum")
	}
	if !reflect.DeepEqual(dueTbl.StatsSnapshot(), refTbl.StatsSnapshot()) {
		t.Fatalf("statistics differ:\n due %+v\n ref %+v", dueTbl.StatsSnapshot(), refTbl.StatsSnapshot())
	}
}

// TestVacuumDuePinnedLeaseDoesNotRebuild: a lease pinned below most of
// the dead versions keeps the reclaimable count under the share even
// though the dead count is far above it. Repeated due passes must not
// rebuild (the check runs under the commit lock and gives up), and the
// first pass after the release compacts everything.
func TestVacuumDuePinnedLeaseDoesNotRebuild(t *testing.T) {
	db, tbl := merged200(t)
	deleteKeys(t, db, tbl, keyRange(0, 10)...) // reclaimable: below the lease
	lease := db.AcquireRead()
	deleteKeys(t, db, tbl, keyRange(10, 100)...) // pinned by the lease
	epoch, data := db.StatsEpoch(), tbl.currentData()
	for i := 0; i < 5; i++ {
		if removed, err := db.VacuumDue(); err != nil || removed != 0 {
			t.Fatalf("due pass %d under lease: removed=%d err=%v", i, removed, err)
		}
	}
	if tbl.currentData() != data || db.Metrics().Vacuums.Value() != 0 || db.StatsEpoch() != epoch {
		t.Fatal("due pass rebuilt the table while the lease pinned the dead versions")
	}
	// The passes did take the commit lock to count; they are timed.
	if n := db.Metrics().VacuumNs.Count(); n != 5 {
		t.Fatalf("vacuum_ns.count=%d, want 5", n)
	}
	if got := dumpRange(tbl, lease.TS(), 0, 1000); len(got) != 190 {
		t.Fatalf("leased view has %d rows, want 190", len(got))
	}
	lease.Release()
	if removed, err := db.VacuumDue(); err != nil || removed != 100 {
		t.Fatalf("due pass after release: removed=%d err=%v, want 100", removed, err)
	}
}

// TestVacuumDueRemapStraddle buffers one delete before a compacting due
// pass and one after it, both against the pre-pass snapshot: each must
// translate through the remap chain to the row it named.
func TestVacuumDueRemapStraddle(t *testing.T) {
	db, tbl := newKVTable(t)
	seedKV(t, db, tbl, 0, 16)
	deleteKeys(t, db, tbl, 0, 1) // 2 of 16 stored: exactly the share
	snap := tbl.SnapshotAt(db.CurrentTS())
	tx := db.Begin()
	if err := tx.DeleteAt(snap, findKey(snap, 9)); err != nil {
		t.Fatal(err)
	}
	if removed, err := db.VacuumDue(); err != nil || removed != 2 {
		t.Fatalf("due pass: removed=%d err=%v, want 2", removed, err)
	}
	if err := tx.DeleteAt(snap, findKey(snap, 12)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, types.Row{types.NewInt(100), types.NewString("new")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit across a due pass: %v", err)
	}
	want := map[int64]string{100: "new"}
	for k := int64(2); k < 16; k++ {
		if k != 9 && k != 12 {
			want[k] = fmt.Sprintf("v%d", k)
		}
	}
	if got := dumpRange(tbl, db.CurrentTS(), 0, 1000); !mapsEqual(got, want) {
		t.Fatalf("remap misdirected a buffered write\ngot:  %s\nwant: %s", describe(got), describe(want))
	}
}

// zoneFixture is an empty table for insertZoneRows.
func zoneFixture(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("zi", types.Schema{
		{Name: "k", Type: types.TInt, NotNull: true},
		{Name: "n", Type: types.TInt},
		{Name: "s", Type: types.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// insertZoneRows inserts rows from..from+n-1 into the zoneFixture
// table. Column "n" is NULL on every row whose insert index falls in a
// block i with i%3 == 1, so merges of assorted sizes produce all-NULL
// blocks, mixed blocks and partial tails.
func insertZoneRows(t *testing.T, db *DB, from, n int) {
	t.Helper()
	rows := make([]types.Row, 0, n)
	for i := from; i < from+n; i++ {
		nv := types.NewInt(int64(i % 700))
		if (i/zoneBlockSize)%3 == 1 {
			nv = types.NewNull(types.TInt)
		}
		rows = append(rows, types.Row{types.NewInt(int64(i)), nv, types.NewString(fmt.Sprintf("s%d", i%97))})
	}
	if err := db.InsertRows("zi", rows); err != nil {
		t.Fatal(err)
	}
}

// rangeScan runs a pruned scan with one range per column and returns
// the visible positions and the zone-map skips it reported.
func rangeScan(db *DB, tbl *Table) ([]int, int64) {
	lo, hi := types.NewInt(2000), types.NewInt(4000)
	nlo, nhi := types.NewInt(100), types.NewInt(200)
	ranges := []ColRange{{Ord: 0, Lo: &lo, Hi: &hi, HiOpen: true}, {Ord: 1, Lo: &nlo, Hi: &nhi}}
	before := db.Metrics().ZoneMapSkips.Value()
	snap := tbl.SnapshotAt(db.CurrentTS())
	rows := snap.CollectVisible(0, snap.NumRowVersions(), ranges, nil)
	return rows, db.Metrics().ZoneMapSkips.Value() - before
}

// TestZoneMapIncrementalMatchesRebuild merges deltas of 1, 1023, 1024,
// 1025 and 5000 rows, with a compacting vacuum in between. After every
// merge the incrementally extended zone maps must equal a full rebuild,
// and a pruned range scan must return the same rows with the same
// number of block skips under both.
func TestZoneMapIncrementalMatchesRebuild(t *testing.T) {
	db, tbl := zoneFixture(t)
	next := 0
	for step, n := range []int{1, 1023, 1024, 1025, -1, 5000, 1, 1023} {
		if n < 0 {
			// Kill a stripe straddling block boundaries, then compact:
			// vacuum rebuilds the zone maps over the shifted main.
			snap := tbl.SnapshotAt(db.CurrentTS())
			tx := db.Begin()
			for _, r := range snap.Rows() {
				if k := snap.Row(r)[0].Int(); k >= 900 && k < 1300 {
					if err := tx.DeleteAt(snap, r); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if removed, err := tbl.Vacuum(endInfinity); err != nil || removed != 400 {
				t.Fatalf("vacuum: removed=%d err=%v", removed, err)
			}
			continue
		}
		insertZoneRows(t, db, next, n)
		next += n
		if err := tbl.MergeDelta(); err != nil {
			t.Fatal(err)
		}
		gotRows, gotSkips := rangeScan(db, tbl)
		tbl.mu.Lock()
		incremental := tbl.data.zoneMaps
		tbl.data.refreshZoneMaps()
		rebuilt := tbl.data.zoneMaps
		tbl.mu.Unlock()
		if !reflect.DeepEqual(incremental, rebuilt) {
			t.Fatalf("step %d (merge of %d): incremental zone maps differ from a full rebuild", step, n)
		}
		wantRows, wantSkips := rangeScan(db, tbl)
		if !reflect.DeepEqual(gotRows, wantRows) || gotSkips != wantSkips {
			t.Fatalf("step %d (merge of %d): scan rows %d skips %d, rebuilt maps give rows %d skips %d",
				step, n, len(gotRows), gotSkips, len(wantRows), wantSkips)
		}
	}
	if _, skips := rangeScan(db, tbl); skips == 0 {
		t.Fatal("fixture never pruned a block; the comparison is vacuous")
	}
}

// TestZoneMapMergeKeepsFullBlocks pins the incremental contract itself:
// a merge reuses the zones of blocks that were already full in main and
// rebuilds only the old partial tail and the new blocks.
func TestZoneMapMergeKeepsFullBlocks(t *testing.T) {
	db, tbl := zoneFixture(t)
	insertZoneRows(t, db, 0, 2*zoneBlockSize+10)
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	before := tbl.currentData().zoneMaps[0]
	// Mark every zone, the partial tail included; a rebuilt zone loses
	// its mark.
	for i := range before.zones {
		before.zones[i].hasNull = true
	}
	insertZoneRows(t, db, 2*zoneBlockSize+10, 5)
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	after := tbl.currentData().zoneMaps[0]
	if after == before || after.rows != 2*zoneBlockSize+15 || len(after.zones) != 3 {
		t.Fatalf("merge did not produce a fresh zone map over the grown main: %+v", after)
	}
	for i := 0; i < 2; i++ {
		if !after.zones[i].hasNull {
			t.Fatalf("full block %d was rebuilt by the merge", i)
		}
	}
	main := tbl.currentData().cols[0].main
	if want := buildZoneMap(main, main.len()).zones[2]; !reflect.DeepEqual(after.zones[2], want) {
		t.Fatalf("tail block not rebuilt over the merged rows: got %+v want %+v", after.zones[2], want)
	}
}

// TestMergeStatsGatedByDebt: the first merge of a table always builds
// statistics; afterwards a merge refreshes them (and bumps the stats
// epoch) only once the rows merged since the last refresh reach 1/8 of
// the stored versions.
func TestMergeStatsGatedByDebt(t *testing.T) {
	db, tbl := newKVTable(t)
	refreshes := func() int64 { return db.Metrics().StatsRefreshes.Value() }
	seedKV(t, db, tbl, 0, 1000)
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if refreshes() != 1 {
		t.Fatalf("first merge refreshes=%d, want 1", refreshes())
	}
	epoch := db.StatsEpoch()
	seedKV(t, db, tbl, 1000, 100) // 100*8 < 1100 stored
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if refreshes() != 1 || db.StatsEpoch() != epoch {
		t.Fatalf("sub-share merge refreshed: refreshes=%d epoch moved=%v", refreshes(), db.StatsEpoch() != epoch)
	}
	if st := tbl.StatsSnapshot(); st.Rows != 1100 || st.Cols[0].Max.Int() != 999 {
		t.Fatalf("row count must stay exact, column stats stale until the share: %+v", st)
	}
	seedKV(t, db, tbl, 1100, 100) // 200*8 >= 1200 stored
	if err := tbl.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	if refreshes() != 2 || db.StatsEpoch() == epoch {
		t.Fatalf("merge at the share did not refresh: refreshes=%d", refreshes())
	}
	if st := tbl.StatsSnapshot(); st.Cols[0].Max.Int() != 1199 {
		t.Fatalf("refreshed max = %v, want 1199", st.Cols[0].Max)
	}
	if n := db.Metrics().MergeNs.Count(); n != 3 {
		t.Fatalf("merge_ns.count=%d, want 3", n)
	}
}
