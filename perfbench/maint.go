package main

import (
	"time"

	"vdm/internal/engine"
	"vdm/internal/storage"
)

// maintainer runs the engine's maintenance policy from a benchmark
// goroutine during the traced run, so each merge, vacuum and checkpoint
// can be timed from outside the engine. The policy is the engine's own
// (internal/engine/maintenance.go): tick every 10 ms (the engine's
// merge poll interval); merge every table whose delta holds at least
// the merge threshold; vacuum once per GC interval; checkpoint once the
// commits since the last checkpoint reach CheckpointEvery.
type maintainer struct {
	db        *storage.DB
	threshold int
	gcEvery   time.Duration
	ckptEvery int64

	trace                  *sessionTrace
	merges, vacuums, ckpts samples
	vacuumed               int64
}

const maintTick = 10 * time.Millisecond

func newMaintainer(db *storage.DB, o engine.Options) *maintainer {
	m := &maintainer{db: db, gcEvery: o.GCInterval}
	if o.AutoMerge {
		m.threshold = o.MergeThreshold
		if m.threshold <= 0 {
			m.threshold = engine.DefaultMergeThreshold
		}
	}
	if o.WALDir != "" {
		m.ckptEvery = int64(o.CheckpointEvery)
	}
	return m
}

func (m *maintainer) run(stop <-chan struct{}) {
	ticker := time.NewTicker(maintTick)
	defer ticker.Stop()
	var sinceGC time.Duration
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if m.threshold > 0 {
			for _, name := range m.db.TableNames() {
				t, ok := m.db.Table(name)
				if !ok || t.DeltaRows() < m.threshold {
					continue
				}
				sp := m.trace.begin(spMerge, -1, 0, 0)
				// As in the engine, a failed pass is retried on the next tick.
				_ = t.MergeDelta()
				m.trace.end(sp)
				m.merges.add(m.trace.duration(sp))
			}
		}
		if m.gcEvery > 0 {
			sinceGC += maintTick
			if sinceGC >= m.gcEvery {
				sinceGC = 0
				sp := m.trace.begin(spVacuum, -1, 0, 0)
				n, _ := m.db.Vacuum()
				m.trace.end(sp)
				m.vacuums.add(m.trace.duration(sp))
				m.vacuumed += int64(n)
			}
		}
		if m.ckptEvery > 0 && m.db.CommitsSinceCheckpoint() >= m.ckptEvery {
			sp := m.trace.begin(spCheckpoint, -1, 0, 0)
			_ = m.db.Checkpoint()
			m.trace.end(sp)
			m.ckpts.add(m.trace.duration(sp))
		}
	}
}

// busy is the total time spent in maintenance calls.
func (m *maintainer) busy() time.Duration {
	return m.merges.sum() + m.vacuums.sum() + m.ckpts.sum()
}
