package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vdm/internal/engine"
	"vdm/internal/htapbench"
	"vdm/internal/s4"
	"vdm/internal/storage"
	"vdm/internal/wal"
)

// Fixed settings shared by the workloads, with the reason for each.
const (
	// htapScale is 10^5 preloaded documents: large enough that the
	// union-view reads are scans of real size (hundreds of ms under
	// load), small enough that a run of a few tens of seconds still
	// collects dozens of statements per shape. At 10^6 a reader
	// statement takes seconds and too few samples fit in a run.
	htapScale = 100_000
	// checkpointEvery matches a realistic durable deployment: the
	// maintenance loop checkpoints and truncates the log every 1000
	// commits, so checkpoint cost is part of the write path's cost.
	checkpointEvery = 1000
	// vdmUser runs the vdm statements under DAC, as the paper's
	// consumption views are queried.
	vdmUser = "user"
	// warmup is run before measuring so that the first merges after
	// set-up, first plans and lazily built structures are not timed.
	warmup = 2 * time.Second
)

// engineOptions are htapbench's defaults (auto-merge at 1024 rows,
// 20 ms version GC, 10 s statement timeout, 256 MiB budget) plus a
// worker pool of GOMAXPROCS, so a change to parallel execution shows.
// Durable workloads add the WAL with interval group commit.
func engineOptions(walDir string) engine.Options {
	o := htapbench.DefaultEngineOptions()
	o.Parallelism = engine.AutoParallelism
	if walDir != "" {
		o.WALDir = walDir
		o.WALSync = wal.SyncInterval
		o.CheckpointEvery = checkpointEvery
	}
	return o
}

// withoutMaintenance is o with the engine's own maintenance loop off;
// the traced run drives the same policy itself (see maintainer).
func withoutMaintenance(o engine.Options) engine.Options {
	o.AutoMerge = false
	o.GCInterval = 0
	o.CheckpointEvery = 0
	return o
}

// workload describes one traffic mix.
type workload struct {
	name  string
	cycle []shape // reader statement cycle; nil for no reader
	// vdm selects the s4 fixture, in memory, with no writer. Otherwise
	// the workload runs on the durable htapbench fixture with one writer
	// session.
	vdm bool
}

// The three workloads. oltp and vdm each leave a different set of
// layers idle: oltp never touches sql/bind/core/exec, vdm never
// commits. A change to one side must show no change on the other. htap
// runs the oltp writer beside a reader on the same tables, which is
// where write/read coupling (leases, commit lock, vacuum, plan cache
// invalidation) shows.
var workloads = map[string]workload{
	"oltp": {name: "oltp"},
	"htap": {name: "htap", cycle: htapCycle},
	"vdm":  {name: "vdm", cycle: vdmCycle, vdm: true},
}

// instance is one set-up engine with its fixture.
type instance struct {
	e      *engine.Engine
	walDir string
}

func (in *instance) close() error {
	err := in.e.Close()
	if in.walDir != "" {
		if rmErr := os.RemoveAll(in.walDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// setup builds a fresh engine and loads the workload's fixture: tables,
// data, delta merge, statistics and view deployment.
func setup(w workload, dir string, n int, seed int64) (*instance, error) {
	in := &instance{}
	if !w.vdm {
		in.walDir = filepath.Join(dir, fmt.Sprintf("wal-%s-%d", w.name, n))
		if err := os.RemoveAll(in.walDir); err != nil {
			return nil, err
		}
	}
	e, err := engine.Open(engineOptions(in.walDir))
	if err != nil {
		return nil, err
	}
	in.e = e
	if err := load(w, e, seed); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func load(w workload, e *engine.Engine, seed int64) error {
	if !w.vdm {
		// SetupFixture turns the plan cache on, as a production
		// gateway serving repeated statements would.
		_, err := htapbench.SetupFixture(e, htapbench.Config{Writers: 1, Readers: 1, Scale: htapScale, Seed: seed})
		return err
	}
	// The s4 fixture is fixed data (its generators have their own
	// seeds); the plan cache stays off, the engine default, so every
	// vdm statement pays for optimization: the optimizer sits on the
	// blocking path of each 47-57-join statement.
	if err := s4.Setup(e, s4.BenchSize()); err != nil {
		return err
	}
	if err := s4.SetupFig14(e, s4.Fig14Full()); err != nil {
		return err
	}
	if err := e.MergeAllDeltas(); err != nil {
		return err
	}
	for _, name := range e.DB().TableNames() {
		if t, ok := e.DB().Table(name); ok {
			t.RefreshStats()
		}
	}
	return nil
}

// sessionStats is what one session measured inside the window.
type sessionStats struct {
	ops       samples             // every op; failed ones are counted, not timed
	class     map[string]*samples // per writer kind or reader shape
	cycles    samples             // one full pass of the session's cycle
	attempted int64
	failed    int64
	errs      []string
	trace     *sessionTrace
}

func newSessionStats() *sessionStats { return &sessionStats{class: map[string]*samples{}} }

func (s *sessionStats) series(class string) *samples {
	c := s.class[class]
	if c == nil {
		c = &samples{}
		s.class[class] = c
	}
	return c
}

func (s *sessionStats) record(class string, d time.Duration) {
	s.ops.add(d)
	s.series(class).add(d)
}

func (s *sessionStats) fail(class string, err error) {
	s.failed++
	s.ops.failed++
	s.series(class).failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, class+": "+err.Error())
	}
}

// window is one measured interval. Ops that start inside it are
// recorded, whether or not they finish inside it, and rates divide by
// its length, so a long statement in flight at the end does not stretch
// the other session's denominator.
type window struct {
	start, end time.Time
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// stepFunc runs a session's next operation and returns its class, and
// whether it is the first and the last operation of the session's
// cycle.
type stepFunc func() (class string, first, last bool, err error)

// phase runs the sessions until win.end; ops starting before win.start
// are warm-up and their latency is not recorded.
func phase(ctx context.Context, wr *writer, rd *reader, win window, traced bool) (ws, rs *sessionStats) {
	var wg sync.WaitGroup
	if wr != nil {
		ws = newSessionStats()
		if traced {
			ws.trace = newSessionTrace("writer", win.start)
		}
		wr.trace = ws.trace
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(ws, win, func() (string, bool, bool, error) {
				first := len(wr.cycle) == 0
				k := wr.next()
				last := len(wr.cycle) == 0
				return k.String(), first, last, wr.do(k)
			})
		}()
	}
	if rd != nil {
		rs = newSessionStats()
		if traced {
			rs.trace = newSessionTrace("reader", win.start)
		}
		rd.trace = rs.trace
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(rs, win, func() (string, bool, bool, error) {
				first := rd.pos == 0
				s, text := rd.next()
				last := rd.pos == 0
				return s.String(), first, last, rd.do(ctx, s, text)
			})
		}()
	}
	wg.Wait()
	return ws, rs
}

// loop is one closed-loop session: the next op starts when the previous
// one returns.
func loop(st *sessionStats, win window, step stepFunc) {
	var cycleStart time.Time
	for {
		start := time.Now()
		if !start.Before(win.end) {
			return
		}
		class, first, last, err := step()
		end := time.Now()
		if first {
			cycleStart = start
		}
		if start.Before(win.start) {
			continue
		}
		st.attempted++
		if err != nil {
			st.fail(class, err)
			continue
		}
		st.record(class, end.Sub(start))
		if last && !cycleStart.Before(win.start) {
			st.cycles.add(end.Sub(cycleStart))
		}
	}
}

// result is everything one workload run measured.
type result struct {
	w          workload
	setups     []time.Duration
	win        window
	writer     *sessionStats
	reader     *sessionStats
	peakRSSMiB float64
	check      *checker
	layers     *layerReport // traced run only
	untraced   *phaseE2E    // traced run: the untraced half, for the overhead
}

// runWorkload sets the workload up, measures it for the given length,
// checks its results, and (untraced) repeats the set-up so set-up time
// is a median of several.
func runWorkload(w workload, cfg config) (*result, error) {
	res := &result{w: w, check: newChecker()}
	t0 := time.Now()
	in, err := setup(w, cfg.dir, 0, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res.setups = append(res.setups, time.Since(t0))
	err = measure(in, w, cfg, res)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		for n := 1; n < setupRepeats; n++ {
			runtime.GC()
			t0 := time.Now()
			in, err := setup(w, cfg.dir, n, cfg.seed)
			if err != nil {
				return nil, fmt.Errorf("%s set-up %d: %w", w.name, n, err)
			}
			res.setups = append(res.setups, time.Since(t0))
			if err := in.close(); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// setupRepeats is how many times an untraced run sets its fixture up;
// setup_s is their median. Set-up time varies more than the measured
// loop (allocation-heavy, GC-sensitive), so one sample is not enough.
const setupRepeats = 3

func measure(in *instance, w workload, cfg config, res *result) error {
	e := in.e
	var wr *writer
	var rd *reader
	var err error
	if !w.vdm {
		if wr, err = newWriter(e.DB(), htapScale, cfg.seed); err != nil {
			return err
		}
	}
	if w.cycle != nil {
		rd = newReader(e, userOf(w), w.cycle, cfg.seed, !w.vdm, res.check)
	}
	runtime.GC()
	ctx := context.Background()
	length := time.Duration(cfg.seconds) * time.Second
	now := time.Now()
	if !cfg.trace {
		res.win = window{start: now.Add(warmup), end: now.Add(warmup + length)}
		res.writer, res.reader = phase(ctx, wr, rd, res.win, false)
	} else {
		// First half untraced with the engine's maintenance loop, second
		// half traced with the benchmark's copy of that loop, on the same
		// engine: the difference is the tracing overhead.
		half := length / 2
		unWin := window{start: now.Add(warmup), end: now.Add(warmup + half)}
		uw, ur := phase(ctx, wr, rd, unWin, false)
		res.untraced = e2eOf(unWin, uw, ur)
		if err := tracedPhase(ctx, in, w, wr, rd, half, res); err != nil {
			return err
		}
	}
	res.peakRSSMiB = peakRSSMiB()
	if w.vdm {
		if err := checkCaseJoin(e, vdmUser, res.check); err != nil {
			return fmt.Errorf("case-join check: %w", err)
		}
	}
	return nil
}

// tracedPhase runs the traced half: maintenance moves from the engine
// into a benchmark goroutine running the same policy, sessions record
// spans, and the statements record counter deltas.
func tracedPhase(ctx context.Context, in *instance, w workload, wr *writer, rd *reader, length time.Duration, res *result) error {
	e := in.e
	opts := e.Options()
	e.SetOptions(withoutMaintenance(opts))
	defer e.SetOptions(opts)
	before := e.Metrics()
	m := newMaintainer(e.DB(), opts)
	start := time.Now()
	res.win = window{start: start, end: start.Add(length)}
	m.trace = newSessionTrace("maintenance", start)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.run(stop)
	}()
	var counters *stmtCounters
	if rd != nil {
		counters = &stmtCounters{}
		rd.counters = counters
	}
	res.writer, res.reader = phase(ctx, wr, rd, res.win, true)
	close(stop)
	<-done
	if rd != nil {
		rd.counters = nil
	}
	after := e.Metrics()
	var shapes []shape
	if rd != nil {
		shapes = rd.cycle
	}
	joins, err := joinsAfter(e, userOf(w), shapes)
	if err != nil {
		return err
	}
	res.layers = buildLayers(res, m, counters, joins, before, after, e.DB())
	return nil
}

func userOf(w workload) string {
	if w.vdm {
		return vdmUser
	}
	return ""
}

// liveVersions returns the row versions stored and the rows visible now
// over every table of db.
func liveVersions(db *storage.DB) (versions, live int) {
	ts := db.CurrentTS()
	for _, name := range db.TableNames() {
		t, ok := db.Table(name)
		if !ok {
			continue
		}
		s := t.SnapshotAt(ts)
		versions += s.NumRowVersions()
		live += s.Count()
	}
	return versions, live
}
