package storage

import (
	"fmt"
	"time"
)

// MVCC version GC. Vacuum physically removes row versions whose end
// timestamp is at or below the snapshot watermark: such versions are
// invisible to every registered reader (their read timestamps are all
// >= the watermark) and to every future reader (new read timestamps
// start at the commit clock, which is >= the watermark). Compaction
// rebuilds the column fragments, visibility arrays, unique indexes and
// zone maps without the removed versions, installs the rebuilt store as
// the table's current data version, and leaves an old→new position
// remap on the retired version so pinned snapshots and buffered
// transaction writes can translate their row positions forward.
//
// A compaction costs O(table), so the background policy (VacuumDue)
// pays for one only when it reclaims at least 1/debtShare of the stored
// versions. The table's dead-version count is kept inline — every
// stored version is either live (counted by liveRows) or dead — so a
// table below the share is skipped under a read lock alone. One at or
// above it takes the commit lock and counts the versions actually
// reclaimable at the watermark; a reader lease pinning most of the dead
// versions keeps that count below the share, and the pass returns
// without rebuilding anything. Explicit Vacuum, VacuumTable and
// DB.Vacuum stay unconditional.

// debtShare sets the maintenance debt a background pass waits for
// before it pays for an O(table) rebuild: 1/debtShare of the table's
// stored row versions, counted as reclaimable dead versions for
// VacuumDue and as rows merged since the last statistics refresh for
// MergeDelta.
const debtShare = 8

// overDebt reports whether a nonzero debt reaches 1/debtShare of total.
func overDebt(debt, total int) bool {
	return debt > 0 && debt*debtShare >= total
}

// Vacuum compacts away row versions with end timestamp <= watermark and
// returns how many it removed. For a table owned by a DB the pass
// serializes with commits under the DB commit lock and the watermark is
// clamped to the DB's snapshot watermark, so callers may pass the
// maximum uint64 to mean "everything provably dead". Standalone tables
// trust the caller's watermark. The BeforeVacuum fault-injection hook
// may abort the pass with an error; AfterVacuum observes the count.
func (t *Table) Vacuum(watermark uint64) (int, error) {
	return t.vacuumPass(watermark, false)
}

// vacuumDue is the debt-triggered pass behind DB.VacuumDue: it skips
// the table under a read lock while its dead versions stay below
// 1/debtShare of the stored versions, and otherwise compacts only if
// the versions reclaimable at the watermark reach that share.
func (t *Table) vacuumDue() (int, error) {
	t.mu.RLock()
	due := overDebt(len(t.data.begin)-int(t.liveRows), len(t.data.begin))
	t.mu.RUnlock()
	if !due {
		return 0, nil
	}
	return t.vacuumPass(endInfinity, true)
}

// vacuumPass runs one vacuum pass with its hooks, locking and timing;
// onDebt selects the VacuumDue rule (see vacuum).
func (t *Table) vacuumPass(watermark uint64, onDebt bool) (int, error) {
	if h := t.hooks(); h != nil && h.BeforeVacuum != nil {
		if err := h.BeforeVacuum(t.name); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	var removed int
	if t.db != nil {
		// commitMu excludes concurrent commits (including their rollback
		// paths, which reuse row positions recorded earlier in the same
		// commit) and freezes the watermark computation.
		t.db.commitMu.Lock()
		if w := t.db.watermarkLocked(); w < watermark {
			watermark = w
		}
		removed = t.vacuum(watermark, onDebt)
		t.db.commitMu.Unlock()
	} else {
		removed = t.vacuum(watermark, onDebt)
	}
	t.metrics.VacuumNs.Observe(int64(time.Since(start)))
	if h := t.hooks(); h != nil && h.AfterVacuum != nil {
		h.AfterVacuum(t.name, removed)
	}
	return removed, nil
}

// vacuum performs the compaction; the caller holds the DB commit lock
// when the table is DB-owned. With onDebt set it compacts only when the
// reclaimable versions reach 1/debtShare of the stored ones; otherwise
// it returns 0 having rebuilt, counted and bumped nothing.
func (t *Table) vacuum(watermark uint64, onDebt bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.data
	total := len(d.begin)
	removed := 0
	for _, end := range d.end {
		if end <= watermark {
			removed++
		}
	}
	if removed == 0 || (onDebt && !overDebt(removed, total)) {
		return 0
	}
	remap := make([]int, total)
	kept := 0
	for r := range remap {
		if d.end[r] <= watermark {
			remap[r] = -1
		} else {
			remap[r] = kept
			kept++
		}
	}

	nd := &tableData{
		begin: make([]uint64, 0, kept),
		end:   make([]uint64, 0, kept),
	}
	// The main/delta split is identical across columns; preserve it so
	// merged rows stay merged (and zone-mapped) after compaction.
	mainLen := 0
	if len(d.cols) > 0 {
		mainLen = d.cols[0].main.len()
	}
	for _, c := range d.cols {
		nc := newColumn(c.typ)
		for r := 0; r < total; r++ {
			if remap[r] < 0 {
				continue
			}
			dst := nc.delta
			if r < mainLen {
				dst = nc.main
			}
			if err := dst.append(c.get(r)); err != nil {
				// Values re-appended into a same-typed fragment cannot
				// mismatch; fail loudly if the invariant breaks.
				panic(fmt.Sprintf("storage: vacuum %s: %v", t.name, err))
			}
		}
		nd.cols = append(nd.cols, nc)
	}
	for r := 0; r < total; r++ {
		if remap[r] < 0 {
			continue
		}
		nd.begin = append(nd.begin, d.begin[r])
		nd.end = append(nd.end, d.end[r])
	}
	nd.uniqueIdx = make([]map[string]int, len(d.uniqueIdx))
	for ki, idx := range d.uniqueIdx {
		nidx := make(map[string]int, len(idx))
		for key, pos := range idx {
			if np := remap[pos]; np >= 0 {
				nidx[key] = np
			}
		}
		nd.uniqueIdx[ki] = nidx
	}
	if d.zoneMaps != nil {
		nd.refreshZoneMaps()
	}

	// Retire the old version: snapshots holding it keep reading their
	// frozen positions; buffered writes translate through the remap.
	d.remap = remap
	d.next = nd
	t.data = nd

	// The compaction just rebuilt every column; refresh the statistics
	// over the compacted store and signal plan caches via the stats
	// epoch (bumpStatsEpoch is safe here: vacuum already holds commitMu
	// for DB-owned tables, and the epoch is a plain atomic).
	t.refreshStatsLocked()
	t.bumpStatsEpoch()

	t.metrics.Vacuums.Inc()
	t.metrics.VacuumedVersions.Add(int64(removed))
	return removed
}

// VacuumTable runs a vacuum pass on one table at the DB's current
// snapshot watermark.
func (db *DB) VacuumTable(name string) (int, error) {
	t, ok := db.Table(name)
	if !ok {
		return 0, fmt.Errorf("storage: table %s does not exist", name)
	}
	return t.Vacuum(endInfinity)
}

// Vacuum runs a vacuum pass over every table at the DB's current
// snapshot watermark and returns the total number of row versions
// removed. It stops at the first fault-injection error.
func (db *DB) Vacuum() (int, error) {
	return db.vacuumEach(func(t *Table) (int, error) { return t.Vacuum(endInfinity) })
}

// VacuumDue is the background vacuum policy, run on every GC tick of
// the engine's maintenance loop and every replica housekeeping pass: it
// compacts a table only once its reclaimable dead versions reach
// 1/debtShare of its stored versions, so a pass costs nothing on a
// table with little to reclaim. It returns the total number of row
// versions removed and stops at the first fault-injection error.
func (db *DB) VacuumDue() (int, error) {
	return db.vacuumEach((*Table).vacuumDue)
}

// vacuumEach runs pass over every table, summing the removed counts.
func (db *DB) vacuumEach(pass func(*Table) (int, error)) (int, error) {
	total := 0
	for _, name := range db.TableNames() {
		t, ok := db.Table(name)
		if !ok {
			continue // dropped concurrently
		}
		n, err := pass(t)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
