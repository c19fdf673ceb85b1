// Package replica implements WAL shipping: each Replica tails the
// primary's write-ahead log directory and applies commit and DDL
// records to its own in-process storage.DB, yielding an analytical
// read replica whose MVCC history mirrors the primary's commit
// timestamps exactly. A replica bootstraps from the latest checkpoint,
// catches up through a non-mutating log scan, then follows the live
// append point; when a primary checkpoint retires segments the replica
// never consumed, it re-bootstraps from the new checkpoint and swaps
// the rebuilt store in atomically — readers holding the old store
// finish their queries against a consistent (merely stale) snapshot.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vdm/internal/storage"
	"vdm/internal/wal"
)

// DefaultPoll is the tail-polling cadence when Config.Poll is 0.
const DefaultPoll = time.Millisecond

// DefaultMergeEvery is the number of applied records between replica
// housekeeping passes (delta merge + version vacuum) when
// Config.MergeEvery is 0.
const DefaultMergeEvery = 4096

// bootstrapAttempts bounds the retry loop around one bootstrap: a scan
// of a live log can race a concurrent checkpoint (segments retired
// mid-read), which surfaces as a transient error and succeeds against
// the new checkpoint on the next attempt.
const bootstrapAttempts = 5

// Config describes a replica set attached to a primary's WAL.
type Config struct {
	// Dir is the primary's WAL directory (segments + checkpoint).
	Dir string
	// Replicas is the number of independent replicas to run.
	Replicas int
	// Poll is the tail-polling cadence once a replica is caught up to
	// the live append point; 0 uses DefaultPoll.
	Poll time.Duration
	// PrimaryTS reports the primary's current commit timestamp; lag is
	// computed against it. Required.
	PrimaryTS func() uint64
	// MergeEvery is how many applied records accumulate between replica
	// housekeeping passes (merge every table's delta, vacuum dead
	// versions); 0 uses DefaultMergeEvery, negative disables.
	MergeEvery int
}

// Set is a group of replicas tailing one primary log.
type Set struct {
	cfg       Config
	reps      []*Replica
	closeOnce sync.Once
}

// Replica is one WAL-shipped copy of the primary. Its store pointer is
// swapped atomically on re-bootstrap; callers must capture DB() once
// per query and use that snapshot throughout.
type Replica struct {
	id  int
	cfg *Config

	db atomic.Pointer[storage.DB]
	// appliedTS is the highest primary commit timestamp applied; reads
	// pinned at or below it see exactly the primary's history.
	appliedTS      atomic.Uint64
	recordsApplied atomic.Int64
	bootstraps     atomic.Int64

	mu   sync.Mutex
	err  error // sticky: set once on an unrecoverable apply/tail fault
	tail *wal.Tailer

	stop chan struct{}
	done chan struct{}
}

// Open bootstraps cfg.Replicas replicas synchronously — each returns
// caught up to the log's scan point — and starts their tail loops.
func Open(cfg Config) (*Set, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("replica: Config.Dir required")
	}
	if cfg.PrimaryTS == nil {
		return nil, fmt.Errorf("replica: Config.PrimaryTS required")
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("replica: Config.Replicas must be >= 1, got %d", cfg.Replicas)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.MergeEvery == 0 {
		cfg.MergeEvery = DefaultMergeEvery
	}
	s := &Set{cfg: cfg}
	for i := 0; i < cfg.Replicas; i++ {
		r := &Replica{
			id:   i,
			cfg:  &s.cfg,
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		if err := r.bootstrap(); err != nil {
			for _, prev := range s.reps {
				prev.shutdown()
			}
			return nil, fmt.Errorf("replica %d: bootstrap: %w", i, err)
		}
		s.reps = append(s.reps, r)
	}
	for _, r := range s.reps {
		go r.run()
	}
	return s, nil
}

// Replicas returns the set's members in id order.
func (s *Set) Replicas() []*Replica { return s.reps }

// Best returns the freshest healthy replica whose applied timestamp is
// at least minTS and whose lag behind the primary clock is at most
// maxLag (0 = unbounded). ok is false when no replica qualifies and
// the caller should read from the primary instead.
func (s *Set) Best(maxLag, minTS uint64) (r *Replica, ok bool) {
	primary := s.cfg.PrimaryTS()
	var best *Replica
	var bestTS uint64
	for _, c := range s.reps {
		if c.Err() != nil {
			continue
		}
		ts := c.appliedTS.Load()
		if ts < minTS {
			continue
		}
		if maxLag > 0 && primary > ts && primary-ts > maxLag {
			continue
		}
		if best == nil || ts > bestTS {
			best, bestTS = c, ts
		}
	}
	return best, best != nil
}

// Close stops every replica's tail loop and releases its log handle.
// Idempotent. The replica stores stay readable (frozen at their last
// applied timestamp) for queries already holding them.
func (s *Set) Close() {
	s.closeOnce.Do(func() {
		for _, r := range s.reps {
			close(r.stop)
		}
		for _, r := range s.reps {
			<-r.done
			r.shutdown()
		}
	})
}

// ID returns the replica's index within its set.
func (r *Replica) ID() int { return r.id }

// DB returns the replica's current store. Capture it once per query:
// a re-bootstrap swaps the pointer, after which the old store is
// frozen but still consistent.
func (r *Replica) DB() *storage.DB { return r.db.Load() }

// AppliedTS is the highest primary commit timestamp this replica has
// applied; snapshots pinned at or below it match the primary exactly.
func (r *Replica) AppliedTS() uint64 { return r.appliedTS.Load() }

// RecordsApplied counts WAL records (commits + DDL) applied since the
// replica was opened, across re-bootstraps.
func (r *Replica) RecordsApplied() int64 { return r.recordsApplied.Load() }

// Bootstraps counts checkpoint restores: 1 after Open, +1 for every
// re-bootstrap forced by a primary checkpoint retiring unconsumed log.
func (r *Replica) Bootstraps() int64 { return r.bootstraps.Load() }

// Lag is the replica's freshness lag: how many commit timestamps the
// primary clock is ahead of this replica's applied timestamp.
func (r *Replica) Lag() uint64 {
	primary := r.cfg.PrimaryTS()
	applied := r.appliedTS.Load()
	if primary <= applied {
		return 0
	}
	return primary - applied
}

// Err reports the replica's sticky fault, if any. A faulted replica
// stops applying (its store freezes at AppliedTS) and Best never
// routes to it.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Replica) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// shutdown closes the tailer handle (idempotent).
func (r *Replica) shutdown() {
	r.mu.Lock()
	t := r.tail
	r.tail = nil
	r.mu.Unlock()
	if t != nil {
		t.Close()
	}
}

// bootstrap (re)builds the replica store from the directory's latest
// checkpoint plus a non-mutating scan of the log, then positions a
// tailer at the scan point. It retries a bounded number of times:
// scanning a live log races concurrent checkpoints, whose segment
// retirement surfaces as transient read errors.
func (r *Replica) bootstrap() error {
	var lastErr error
	for attempt := 0; attempt < bootstrapAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		db, tail, appliedTS, n, err := bootstrapOnce(r.cfg.Dir)
		if err != nil {
			lastErr = err
			continue
		}
		r.mu.Lock()
		old := r.tail
		r.tail = tail
		r.mu.Unlock()
		if old != nil {
			old.Close()
		}
		// Publish applied state before the store pointer: a router that
		// sees the new db never observes a stale (lower) watermark.
		r.appliedTS.Store(appliedTS)
		r.recordsApplied.Add(int64(n))
		r.db.Store(db)
		r.bootstraps.Add(1)
		return nil
	}
	return lastErr
}

// bootstrapOnce performs one checkpoint-restore + log-scan + tailer
// attach against a possibly live directory.
func bootstrapOnce(dir string) (*storage.DB, *wal.Tailer, uint64, int, error) {
	db := storage.NewDB()
	ck, err := wal.ReadCheckpoint(dir)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var ckTS uint64
	if ck != nil {
		ckTS = ck.TS
		if err := db.RestoreCheckpoint(ck); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	scan, err := wal.ScanSegments(dir, ckTS, db.ApplyLogRecord, nil)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	// Guard the scan against a checkpoint that landed mid-flight: the
	// segment listing could then silently omit retired segments, leaving
	// a gap in the replayed history. A checkpoint written after the
	// listing changes the checkpoint timestamp — detect that and retry
	// against the new checkpoint.
	ck2, err := wal.ReadCheckpoint(dir)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var ck2TS uint64
	if ck2 != nil {
		ck2TS = ck2.TS
	}
	if ck2TS != ckTS {
		return nil, nil, 0, 0, fmt.Errorf("replica: checkpoint advanced %d -> %d during scan", ckTS, ck2TS)
	}
	lastTS := scan.LastTS
	if ckTS > lastTS {
		lastTS = ckTS
	}
	tail, err := wal.NewTailer(dir, scan.ActiveBase, scan.ActiveSize, lastTS)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return db, tail, lastTS, scan.Records, nil
}

// run is the replica's tail loop: drain every decodable record, then
// sleep one poll interval at the live append point. ErrTailTruncated
// (checkpoint retired unconsumed log) triggers a full re-bootstrap;
// any other fault is sticky and stops the loop.
func (r *Replica) run() {
	defer close(r.done)
	sinceMerge := 0
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		r.mu.Lock()
		tail := r.tail
		r.mu.Unlock()
		if tail == nil {
			return
		}
		rec, err := tail.Next()
		switch {
		case err == nil && rec == nil:
			// Caught up to the live append point.
			select {
			case <-r.stop:
				return
			case <-time.After(r.cfg.Poll):
			}
			continue
		case err != nil:
			if errors.Is(err, wal.ErrTailTruncated) {
				if !r.rebootstrap() {
					return
				}
				continue
			}
			r.fail(err)
			return
		}
		db := r.db.Load()
		if err := db.ApplyLogRecord(rec); err != nil {
			r.fail(fmt.Errorf("replica %d: apply: %w", r.id, err))
			return
		}
		r.recordsApplied.Add(1)
		if ts := wal.CommitTS(rec); ts > 0 {
			r.appliedTS.Store(ts)
		}
		if r.cfg.MergeEvery > 0 {
			if sinceMerge++; sinceMerge >= r.cfg.MergeEvery {
				sinceMerge = 0
				r.housekeep(db)
			}
		}
	}
}

// rebootstrap rebuilds the store after the tail position was retired,
// retrying until it succeeds or the replica is stopped. It reports
// false when the loop should exit (stopped, or persistently failing).
func (r *Replica) rebootstrap() bool {
	for attempt := 0; ; attempt++ {
		select {
		case <-r.stop:
			return false
		default:
		}
		err := r.bootstrap()
		if err == nil {
			return true
		}
		if attempt >= bootstrapAttempts {
			r.fail(fmt.Errorf("replica %d: re-bootstrap: %w", r.id, err))
			return false
		}
		select {
		case <-r.stop:
			return false
		case <-time.After(time.Duration(attempt+1) * 20 * time.Millisecond):
		}
	}
}

// housekeep runs the replica-side analogue of the primary's background
// maintenance, under the same storage policy: merge each table's
// accumulated delta into its main fragment (extending zone maps) and
// run the debt-triggered vacuum (DB.VacuumDue) below the replica's own
// watermark. Failures here are not sticky — a merge racing a concurrent
// re-bootstrap swap is harmless.
func (r *Replica) housekeep(db *storage.DB) {
	for _, name := range db.TableNames() {
		if tbl, ok := db.Table(name); ok {
			_ = tbl.MergeDelta()
		}
	}
	_, _ = db.VacuumDue()
}
