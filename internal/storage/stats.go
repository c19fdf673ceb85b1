package storage

import (
	"vdm/internal/types"
)

// Table statistics. The storage layer is the authority on how much data
// exists and what it looks like; the planner's estimator (internal/stats)
// consumes these numbers through the binder. Three freshness tiers keep
// the cost of statistics near zero:
//
//   - The visible row count is exact and always fresh: it is a counter
//     maintained inline by every insert/delete/rollback.
//   - Distinct counts for unique-key columns are exact and always fresh:
//     they are the size of the unique index the table maintains anyway.
//   - Full column statistics (distinct counts from the dictionary
//     encodings, min/max from zone maps, null counts) are rebuilt by
//     RefreshStats and piggybacked on the maintenance passes. A
//     compacting vacuum always refreshes (it rebuilt every column
//     anyway). A delta merge refreshes only when the rows merged since
//     the last refresh reach 1/debtShare of the stored versions, or the
//     table has no statistics yet, so the O(table) walk is amortized
//     over at least that much change. Between refreshes they may lag
//     the data; the estimator treats them as estimates, and the
//     DB-level stats epoch (see statsEpoch in db.go), which moves only
//     with a refresh or a row-count bucket crossing, tells plan caches
//     when staleness could matter.

// StatsSnapshot returns the table's current statistics: the exact
// visible row count, the column statistics from the last refresh (zero
// values when never refreshed), with distinct counts of single-column
// unique keys overlaid from the live unique indexes.
func (t *Table) StatsSnapshot() types.TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := types.TableStats{
		Rows: t.liveRows,
		Cols: make([]types.ColStats, len(t.schema)),
	}
	copy(st.Cols, t.colStats)
	for ki, k := range t.keys {
		if len(k.Columns) != 1 || ki >= len(t.data.uniqueIdx) {
			continue
		}
		if n := int64(len(t.data.uniqueIdx[ki])); n > 0 {
			st.Cols[k.Columns[0]].Distinct = n
		}
	}
	return st
}

// RefreshStats rebuilds the per-column statistics from the current data
// and bumps the owning DB's stats epoch. Vacuum and (gated by merge
// debt) delta merge refresh implicitly.
func (t *Table) RefreshStats() {
	t.mu.Lock()
	t.refreshStatsLocked()
	t.mu.Unlock()
	t.bumpStatsEpoch()
}

// refreshStatsLocked recomputes colStats; the caller holds t.mu.
func (t *Table) refreshStatsLocked() {
	d := t.data
	cols := make([]types.ColStats, len(t.schema))
	var keyBuf []byte
	for c := range t.schema {
		cs := &cols[c]
		col := d.cols[c]
		// Distinct strings come straight from the dictionary encodings
		// (main + delta), an upper bound that may count values held only
		// by dead row versions. Other types get an exact count below.
		var distinct map[string]struct{}
		if sf, ok := col.main.(*stringFragment); ok {
			cs.Distinct = int64(sf.distinctCount())
			if df, ok := col.delta.(*stringFragment); ok {
				cs.Distinct += int64(df.distinctCount())
			}
		} else {
			distinct = make(map[string]struct{})
		}
		// Min/max seed from the zone maps over the main fragment when
		// present; the visible-row walk below extends them over the delta
		// (and over everything when zone maps were never built).
		walkFrom := 0
		if c < len(d.zoneMaps) && d.zoneMaps[c] != nil {
			zm := d.zoneMaps[c]
			for _, z := range zm.zones {
				if !z.has {
					continue
				}
				foldMinMax(cs, z.min)
				foldMinMax(cs, z.max)
			}
			if distinct == nil {
				walkFrom = zm.rows // strings: main already summarized
			}
		}
		for r := range d.begin {
			if d.end[r] != endInfinity || d.begin[r] == endInfinity {
				continue // dead or rolled-back version
			}
			v := col.get(r)
			if v.IsNull() {
				cs.Nulls++
				continue
			}
			if distinct != nil {
				keyBuf = v.AppendKey(keyBuf[:0])
				distinct[string(keyBuf)] = struct{}{}
			}
			if r >= walkFrom || distinct != nil {
				foldMinMax(cs, v)
			}
		}
		if distinct != nil {
			cs.Distinct = int64(len(distinct))
		}
	}
	t.colStats = cols
	t.mergedSinceStats = 0
	t.metrics.StatsRefreshes.Inc()
}

// foldMinMax widens cs.Min/cs.Max to include v (non-NULL).
func foldMinMax(cs *types.ColStats, v types.Value) {
	if !cs.HasMinMax {
		cs.Min, cs.Max, cs.HasMinMax = v, v, true
		return
	}
	if c, err := types.Compare(v, cs.Min); err == nil && c < 0 {
		cs.Min = v
	}
	if c, err := types.Compare(v, cs.Max); err == nil && c > 0 {
		cs.Max = v
	}
}

// bumpStatsEpoch advances the owning DB's stats epoch (no-op for
// standalone tables).
func (t *Table) bumpStatsEpoch() {
	if t.db != nil {
		t.db.statsEpoch.Add(1)
	}
}

// rowBucket maps a visible row count to its order-of-magnitude bucket
// (0 for empty, 1 for 1–9, 2 for 10–99, ...). Commits that move a table
// across a bucket boundary bump the DB stats epoch: a cached plan's
// cost-based choices are only revisited when table sizes change enough
// to plausibly change them.
func rowBucket(n int64) int {
	b := 0
	for n > 0 {
		b++
		n /= 10
	}
	return b
}
