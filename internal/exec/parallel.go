package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vdm/internal/plan"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// Morsel-driven parallel execution. Base-table scans are split into
// fixed-size row ranges (morsels); a bounded worker pool runs the whole
// scan→filter→project(→agg) pipeline fragment on each morsel before
// touching the next. Streaming operators (scans, join probes) consume
// their morsels through an ordered exchange that publishes one batch at
// a time, so a LIMIT above stops the workers after a bounded number of
// batches; blocking operators (group-by partials, top-k, DISTINCT) sweep
// every morsel through collectMorsels. Either way results are merged in
// morsel sequence order, which makes parallel execution produce rows in
// exactly the serial scan order — determinism the rest of the engine
// (ORDER BY stability, group first-seen order) relies on.

// DefaultMorselSize is the number of row positions per morsel when the
// caller does not configure one. Large enough to amortize scheduling
// and locking, small enough to keep the pool busy on skewed filters.
const DefaultMorselSize = 32768

// parallelBuildMinRows is the smallest build side worth partitioning
// across workers; below it a serial hash build is faster.
const parallelBuildMinRows = 1024

// SetParallel enables morsel-driven parallel execution for subsequent
// Build calls: workers is the pool size (values < 2 keep the serial
// path), morselSize the rows per morsel (0 = DefaultMorselSize).
func (b *Builder) SetParallel(workers, morselSize int) {
	if workers < 1 {
		workers = 1
	}
	if morselSize <= 0 {
		morselSize = DefaultMorselSize
	}
	b.workers = workers
	b.morselSize = morselSize
}

// SetMetrics directs executor counters (parallel pipelines, morsels,
// partitioned builds, top-k fusions) to m.
func (b *Builder) SetMetrics(m *Metrics) { b.met = m }

// countParallel records a morsel sweep in the parallel counters. A
// sweep of at most one morsel runs inline in the calling goroutine, so
// it is serial work and counts nothing.
func (m *Metrics) countParallel(morsels int) {
	if m == nil || morsels <= 1 {
		return
	}
	m.ParallelPipelines.Inc()
	m.MorselsScanned.Add(int64(morsels))
}

// poolWorkers is the number of workers a sweep over morsels runs on:
// 0 when it runs inline (at most one morsel, or no pool).
func poolWorkers(workers, morsels int) int {
	if workers <= 1 || morsels <= 1 {
		return 0
	}
	return min(workers, morsels)
}

// --- morsel pipeline fragment ------------------------------------------

// morselSpec is a fused scan→filter→project pipeline fragment executed
// morsel-at-a-time. filter and project may be nil; EvalFn closures are
// pure, so one spec is shared by all workers.
type morselSpec struct {
	snap    *storage.Snapshot
	ords    []int
	ranges  []storage.ColRange
	filter  EvalFn
	project []EvalFn
	// vec, when set, runs the fragment through the vectorized batch
	// kernels (vecBatch rows per batch) instead of the row closures; the
	// exchange and ordering machinery is identical either way.
	vec      *vecSpec
	vecBatch int
}

// run executes the fragment over row positions [lo, hi): collect
// visible positions (one lock, zone-map pruned), materialize them into
// a flat batch (one lock, column-at-a-time), then filter and project in
// place. idxBuf is a caller-owned scratch slice returned for reuse.
func (m *morselSpec) run(lo, hi int, idxBuf []int) ([]types.Row, []int, error) {
	idxBuf = m.snap.CollectVisible(lo, hi, m.ranges, idxBuf[:0])
	if len(idxBuf) == 0 {
		return nil, idxBuf, nil
	}
	w := len(m.ords)
	flat := make(types.Row, len(idxBuf)*w)
	m.snap.FillRows(idxBuf, m.ords, flat)
	rows := make([]types.Row, len(idxBuf))
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	if m.filter != nil {
		kept := rows[:0]
		for _, r := range rows {
			v, err := m.filter(r)
			if err != nil {
				return nil, idxBuf, err
			}
			if !v.IsNull() && v.Bool() {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if len(m.project) > 0 {
		pw := len(m.project)
		pflat := make(types.Row, len(rows)*pw)
		for i, r := range rows {
			out := pflat[i*pw : (i+1)*pw : (i+1)*pw]
			for k, fn := range m.project {
				v, err := fn(r)
				if err != nil {
					return nil, idxBuf, err
				}
				out[k] = v
			}
			rows[i] = out
		}
	}
	return rows, idxBuf, nil
}

// morselCount returns how many morsels of the given size cover the
// spec's snapshot.
func (m *morselSpec) morselCount(size int) int {
	total := m.snap.NumRowVersions()
	return (total + size - 1) / size
}

// batchSize is the rows per cursor chunk: the vector batch, or the
// default batch size for the row closures.
func (m *morselSpec) batchSize() int {
	if m.vec != nil && m.vecBatch > 0 {
		return m.vecBatch
	}
	return DefaultBatchSize
}

// cursor streams row positions [lo, hi) through the fragment one batch
// at a time, skipping batches no row survives. The governance pause
// point fires once, on the first pull.
func (m *morselSpec) cursor(lo, hi int, gov *Governance) cursor {
	batch := m.batchSize()
	pos := lo
	opened := false
	var sc *vecScratch
	var idxBuf []int
	return func(dst []types.Row) (chunk, bool, error) {
		if !opened {
			if err := gov.point(PointScan); err != nil {
				return chunk{}, false, err
			}
			if m.vec != nil {
				sc = newVecScratch(m.vec)
			}
			opened = true
		}
		for pos < hi {
			end := min(pos+batch, hi)
			var rows []types.Row
			var err error
			if m.vec != nil {
				if err = m.vec.fill(pos, end, sc); err == nil {
					rows = m.vec.decodeRows(sc, dst[:0])
				}
			} else {
				rows, idxBuf, err = m.run(pos, end, idxBuf)
			}
			pos = end
			if err != nil {
				return chunk{}, false, err
			}
			if len(rows) > 0 {
				return chunk{rows: rows}, true, nil
			}
		}
		return chunk{}, false, nil
	}
}

// collectMorsels runs work for every morsel seq in [0, count) across a
// bounded worker pool and returns the results in sequence order. It
// waits for all workers; the first error (by sequence) wins. A panic
// inside work is confined to its morsel and surfaces as a typed
// ErrInternal — a worker goroutine must never crash the process. At
// most one morsel (or a pool of one) runs inline in the caller's
// goroutine.
func collectMorsels[T any](count, workers int, work func(seq int) (T, error)) ([]T, error) {
	results := make([]T, count)
	errs := make([]error, count)
	runOne := func(seq int) {
		defer func() {
			if r := recover(); r != nil {
				errs[seq] = panicErr("parallel worker", r)
			}
		}()
		results[seq], errs[seq] = work(seq)
	}
	if w := poolWorkers(workers, count); w == 0 {
		for seq := 0; seq < count; seq++ {
			runOne(seq)
		}
	} else {
		var claim int64
		var wg sync.WaitGroup
		for ; w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					seq := int(atomic.AddInt64(&claim, 1)) - 1
					if seq >= count {
						return
					}
					runOne(seq)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// --- ordered exchange ---------------------------------------------------

// chunk is one batch of morsel output: rows in scan (or probe) order
// and, for build-left LEFT OUTER probes, the build rows they matched.
type chunk struct {
	rows    []types.Row
	matched []int32
}

// cursor pulls one morsel's output a chunk at a time; ok=false once the
// morsel is exhausted. dst is a row slice the cursor may reuse for the
// chunk it returns: the inline consumer hands back the previous chunk's
// rows (which it has finished with), workers pass nil, since a
// published chunk belongs to the consumer.
type cursor func(dst []types.Row) (c chunk, ok bool, err error)

// exchange streams the output of the morsels covering row positions
// [0, total) to one consumer, in morsel order, one chunk at a time:
//
//   - Workers claim morsels in sequence, one at a time each. Every
//     morsel publishes into its own stream, and the consumer reads the
//     streams in sequence, so morsel 0's first chunk is emitted as soon
//     as it is produced.
//   - Demand gates production through a read-ahead window: a worker
//     computes its morsel's n-th chunk only while n < window. The window
//     starts at one chunk and doubles with every chunk the consumer
//     takes, so after c takes it is 2^c. A worker moves on to a new
//     morsel only after publishing a whole one. While the window is
//     below a morsel's chunk count, at most one morsel per worker is in
//     flight, and a consumer that stops after c takes has cost at most
//     c + workers·2^c chunks, however large the input. Once the window
//     covers a morsel the pool runs free. A full scan thus finishes as
//     fast as the pool allows, with its table-lock acquisitions bunched
//     together instead of spread across the consumer's run, where every
//     long writer hold (a vacuum pass) would stall it again. The
//     morsel the consumer reads never waits: it has published at most
//     what was taken from it, plus one. Chunks in which no row survives
//     are not published and not counted.
//   - Workers check the stop signal between chunks; close cancels and
//     joins them.
//
// With at most one morsel, or no pool, the cursors run inline in the
// consumer's goroutine: no goroutines and no channels.
type exchange struct {
	total, morselSize int
	open              func(lo, hi int) cursor
	gov               *Governance

	morsels int
	started int // workers started; 0 when inline

	seq int // next morsel the consumer reads

	// inline state
	cur  cursor
	last []types.Row

	// pool state
	streams []chan published // one per morsel; the consumer reads streams[seq]
	claim   atomic.Int64
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	wake    *sync.Cond
	window  int // 2^(chunks taken by the consumer), capped
	stopped bool
}

// published is a chunk, or the error that ended its morsel.
type published struct {
	chunk
	err error
}

// startExchange streams row positions [0, total), cut into morsels of
// morselSize rows that publish chunks of up to batch rows, each morsel
// started by open on the goroutine that runs it. It launches the pool,
// or nothing when the exchange runs inline.
func startExchange(total, morselSize, batch, workers int, gov *Governance, open func(lo, hi int) cursor) *exchange {
	if workers <= 1 || morselSize <= 0 {
		morselSize = max(total, 1)
	}
	x := &exchange{
		total:      total,
		morselSize: morselSize,
		open:       open,
		gov:        gov,
		morsels:    (total + morselSize - 1) / morselSize,
	}
	x.started = poolWorkers(workers, x.morsels)
	if x.started == 0 {
		return x
	}
	// A stream buffers its whole morsel (capped), so a worker that runs
	// ahead of the consumer never blocks on the send.
	buffer := min((morselSize+batch-1)/batch, maxStreamBuffer)
	x.streams = make([]chan published, x.morsels)
	for i := range x.streams {
		x.streams[i] = make(chan published, buffer)
	}
	x.stop = make(chan struct{})
	x.wake = sync.NewCond(&x.mu)
	x.window = 1
	for w := 0; w < x.started; w++ {
		x.wg.Add(1)
		go x.worker()
	}
	return x
}

// maxStreamBuffer caps a stream's buffer, in chunks; a worker that
// fills it waits for the consumer. Default sizes need 32.
const maxStreamBuffer = 64

// maxWindow caps the read-ahead window; past a morsel's chunk count
// its size no longer matters.
const maxWindow = 1 << 20

func (x *exchange) worker() {
	defer x.wg.Done()
	for {
		seq := int(x.claim.Add(1)) - 1
		if seq >= x.morsels || !x.run(seq) {
			return
		}
	}
}

// run produces morsel seq into its stream and closes it; false means
// the exchange was stopped. A panic is confined to the morsel and
// surfaces, in order, as a typed ErrInternal.
func (x *exchange) run(seq int) (running bool) {
	out := x.streams[seq]
	defer close(out)
	defer func() {
		if r := recover(); r != nil {
			running = x.publish(out, published{err: panicErr("parallel worker", r)})
		}
	}()
	lo := seq * x.morselSize
	next := x.open(lo, min(lo+x.morselSize, x.total))
	for n := 0; x.await(n); n++ {
		c, ok, err := next(nil)
		if err != nil {
			return x.publish(out, published{err: err})
		}
		if !ok {
			return true
		}
		if !x.publish(out, published{chunk: c}) {
			return false
		}
	}
	return false
}

// await blocks until a worker may compute its morsel's n-th chunk;
// false means the exchange was stopped.
func (x *exchange) await(n int) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	for n >= x.window && !x.stopped {
		x.wake.Wait()
	}
	return !x.stopped
}

func (x *exchange) publish(out chan<- published, p published) bool {
	select {
	case out <- p:
		return true
	case <-x.stop:
		return false
	}
}

// next returns the next chunk in morsel order; ok=false at the end. The
// chunk is the consumer's until it calls next again.
func (x *exchange) next() (chunk, bool, error) {
	if x.started == 0 {
		return x.nextInline()
	}
	for x.seq < x.morsels {
		var p published
		var ok bool
		// Also wake on cancellation: a worker pinned inside a test hook
		// (or stalled storage) must not wedge the consumer.
		select {
		case p, ok = <-x.streams[x.seq]:
		case <-x.gov.Done():
			return chunk{}, false, x.gov.Err()
		}
		if !ok {
			x.streams[x.seq] = nil
			x.seq++
			continue
		}
		if p.err != nil {
			return chunk{}, false, p.err
		}
		x.mu.Lock()
		if x.window < maxWindow {
			x.window *= 2
			x.wake.Broadcast()
		}
		x.mu.Unlock()
		return p.chunk, true, nil
	}
	return chunk{}, false, nil
}

// nextInline pulls the morsels' cursors in sequence on the consumer's
// goroutine, recycling each chunk's row slice into the next.
func (x *exchange) nextInline() (chunk, bool, error) {
	for {
		if x.cur == nil {
			if x.seq >= x.morsels {
				return chunk{}, false, nil
			}
			lo := x.seq * x.morselSize
			x.cur = x.open(lo, min(lo+x.morselSize, x.total))
			x.seq++
		}
		c, ok, err := x.cur(x.last)
		if err != nil {
			return chunk{}, false, err
		}
		if ok {
			x.last = c.rows[:0]
			return c, true, nil
		}
		x.cur = nil
	}
}

// close stops and joins every worker. Idempotent.
func (x *exchange) close() {
	if x.stop != nil {
		close(x.stop)
		x.mu.Lock()
		x.stopped = true
		x.wake.Broadcast()
		x.mu.Unlock()
		x.wg.Wait()
		x.stop = nil
	}
	x.streams, x.cur, x.last = nil, nil, nil
}

// --- streaming scan ------------------------------------------------------

// streamScanIter streams a morselSpec's output through an exchange:
// rows come out in serial scan order, a batch at a time, so a LIMIT
// above stops the scan within a bounded number of batches. Serial and
// single-morsel scans run inline; larger ones run on the worker pool.
type streamScanIter struct {
	spec       *morselSpec
	workers    int
	morselSize int
	met        *Metrics
	gov        *Governance

	x     *exchange
	unpin func()
	cur   []types.Row
	pos   int
}

func (s *streamScanIter) Open() error {
	// Register the scan's snapshot timestamp in the DB watermark for the
	// iterator's lifetime: workers re-acquire the table lock per batch,
	// and the pin guarantees background version GC never reclaims
	// versions this timestamp can still see in the meantime.
	s.unpin = s.spec.snap.Pin()
	total := s.spec.snap.NumRowVersions()
	s.x = startExchange(total, s.morselSize, s.spec.batchSize(), s.workers, s.gov, func(lo, hi int) cursor {
		return s.spec.cursor(lo, hi, s.gov)
	})
	s.cur, s.pos = nil, 0
	if s.met != nil {
		s.met.countParallel(s.x.morsels)
		if s.spec.vec != nil {
			s.met.VecPipelines.Inc()
		}
	}
	return nil
}

func (s *streamScanIter) Next() (types.Row, bool, error) {
	for s.pos >= len(s.cur) {
		c, ok, err := s.x.next()
		if err != nil || !ok {
			return nil, false, err
		}
		s.cur, s.pos = c.rows, 0
	}
	row := s.cur[s.pos]
	s.pos++
	return row, true, nil
}

func (s *streamScanIter) Close() {
	if s.x != nil {
		s.x.close()
	}
	if s.unpin != nil {
		s.unpin()
		s.unpin = nil
	}
	s.cur = nil
}

func (s *streamScanIter) extraStats(st *OpStats) {
	if s.x != nil && s.x.started > 0 {
		st.Workers = int64(s.x.started)
		st.Morsels = int64(s.x.morsels)
	}
}

// --- parallel group by --------------------------------------------------

// pAggState is one aggregate's per-morsel partial state. For DISTINCT
// aggregates it records the locally-new values in first-seen order;
// the merge replays them against the global seen-set so the final
// state is identical to a serial run.
type pAggState struct {
	aggState
	dvals []types.Value
}

// pgEntry is one group's partial result within a single morsel.
type pgEntry struct {
	key       string
	groupVals types.Row
	states    []pAggState
}

// mergeEntry is one group's final state, built by folding per-morsel
// partials in sequence order.
type mergeEntry struct {
	groupVals types.Row
	states    []aggState
}

// parallelGroupByIter computes partial aggregates per morsel across a
// worker pool, then merges the partial tables in morsel order. Group
// output order equals the serial first-seen order because morsels are
// merged in scan order.
type parallelGroupByIter struct {
	spec       *morselSpec
	workers    int
	morselSize int
	met        *Metrics
	gov        *Governance
	acct       memAcct
	// vagg, when set, folds each morsel through the vectorized
	// aggregation kernels instead of the row partial fold; the partials,
	// merge, and finalize are shared, so the output is identical.
	vagg *vecAggSpec
	// parBytes tracks the per-morsel partial tables reserved directly
	// against the governance tracker by workers; released after the
	// merge (Close as a backstop on error paths).
	parBytes atomic.Int64

	groupIdx  []int
	aggs      []groupSpec
	scalarAgg bool

	groups []types.Row
	pos    int
}

func (g *parallelGroupByIter) Open() error {
	// The aggregation materializes fully inside Open, so the snapshot
	// only needs its watermark pin for the duration of the morsel sweep.
	unpin := g.spec.snap.Pin()
	defer unpin()
	g.acct = memAcct{gov: g.gov}
	morsels := g.spec.morselCount(g.morselSize)
	work := func(seq int) ([]*pgEntry, error) {
		if err := g.gov.point(PointGroupMerge); err != nil {
			return nil, err
		}
		lo := seq * g.morselSize
		rows, _, err := g.spec.run(lo, lo+g.morselSize, nil)
		if err != nil {
			return nil, err
		}
		entries, err := g.partialAgg(rows)
		if err != nil {
			return nil, err
		}
		// Reserve the morsel's partial-table footprint; workers share
		// the tracker, so a query blowing its budget fails here no
		// matter which worker crosses the line.
		if mb := partialBytes(entries, len(g.aggs)); mb > 0 {
			if err := g.gov.grow(mb); err != nil {
				return nil, err
			}
			g.parBytes.Add(mb)
		}
		return entries, nil
	}
	if g.vagg != nil {
		work = func(seq int) ([]*pgEntry, error) {
			if err := g.gov.point(PointGroupMerge); err != nil {
				return nil, err
			}
			lo := seq * g.morselSize
			t := newVecAggTable(g.vagg)
			sc := newVecScratch(g.vagg.spec)
			if err := t.foldRange(lo, lo+g.morselSize, sc); err != nil {
				return nil, err
			}
			entries := t.order
			if mb := partialBytes(entries, len(g.aggs)); mb > 0 {
				if err := g.gov.grow(mb); err != nil {
					return nil, err
				}
				g.parBytes.Add(mb)
			}
			return entries, nil
		}
	}
	if g.starOnly() {
		// count(*)-only over an unfiltered scan: count visibility per
		// morsel without materializing any rows.
		work = func(seq int) ([]*pgEntry, error) {
			if err := g.gov.point(PointGroupMerge); err != nil {
				return nil, err
			}
			lo := seq * g.morselSize
			n := g.spec.snap.CountVisible(lo, lo+g.morselSize, g.spec.ranges)
			e := &pgEntry{states: make([]pAggState, len(g.aggs))}
			for i := range e.states {
				e.states[i].count = int64(n)
			}
			return []*pgEntry{e}, nil
		}
	}
	partials, err := collectMorsels(morsels, g.workers, work)
	if err != nil {
		return err
	}
	final := make(map[string]*mergeEntry)
	var order []*mergeEntry
	stride := govStride{gov: g.gov}
	for _, tbl := range partials {
		for _, e := range tbl {
			if err := stride.tick(); err != nil {
				return err
			}
			f, ok := final[e.key]
			if !ok {
				f = &mergeEntry{groupVals: e.groupVals, states: make([]aggState, len(g.aggs))}
				final[e.key] = f
				order = append(order, f)
				if err := g.acct.add(int64(len(e.key)) + rowBytes(e.groupVals) + int64(len(g.aggs))*aggStateBytes); err != nil {
					return err
				}
			}
			for i := range g.aggs {
				if err := mergeAggState(&f.states[i], &g.aggs[i], &e.states[i], &g.acct); err != nil {
					return err
				}
			}
		}
	}
	if len(order) == 0 && g.scalarAgg {
		order = append(order, &mergeEntry{states: make([]aggState, len(g.aggs))})
	}
	for _, e := range order {
		out := make(types.Row, 0, len(e.groupVals)+len(g.aggs))
		out = append(out, e.groupVals...)
		for i := range g.aggs {
			v, err := finalize(&e.states[i], &g.aggs[i])
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		if err := g.acct.add(rowBytes(out)); err != nil {
			return err
		}
		g.groups = append(g.groups, out)
	}
	g.pos = 0
	// The per-morsel partials are garbage once merged; return their
	// reservation to the budget.
	g.releasePartials()
	g.met.countParallel(morsels)
	if g.met != nil && g.vagg != nil {
		g.met.VecPipelines.Inc()
	}
	return nil
}

// releasePartials returns the workers' partial-table reservation.
func (g *parallelGroupByIter) releasePartials() {
	if n := g.parBytes.Swap(0); n > 0 {
		g.gov.release(n)
	}
}

// partialBytes estimates one morsel partial table's footprint.
func partialBytes(entries []*pgEntry, aggs int) int64 {
	var mb int64
	for _, e := range entries {
		mb += int64(len(e.key)) + rowBytes(e.groupVals) + int64(aggs)*aggStateBytes
		for i := range e.states {
			mb += rowBytes(types.Row(e.states[i].dvals))
		}
	}
	return mb
}

// starOnly reports whether the aggregation is a bare scalar count(*)
// over an unfiltered scan — the shape that needs no row values at all.
func (g *parallelGroupByIter) starOnly() bool {
	if !g.scalarAgg || g.spec.filter != nil {
		return false
	}
	if g.vagg != nil && g.vagg.spec.hasFilter() {
		return false
	}
	for i := range g.aggs {
		if !g.aggs[i].star {
			return false
		}
	}
	return true
}

// partialAgg folds one morsel's rows into an ordered partial table.
func (g *parallelGroupByIter) partialAgg(rows []types.Row) ([]*pgEntry, error) {
	if g.scalarAgg {
		// No group columns: a single state per morsel, no key encoding
		// or hash-table lookups on the per-row path.
		if len(rows) == 0 {
			return nil, nil
		}
		e := &pgEntry{states: make([]pAggState, len(g.aggs))}
		for _, row := range rows {
			for i := range g.aggs {
				if err := accumulatePartial(&e.states[i], &g.aggs[i], row); err != nil {
					return nil, err
				}
			}
		}
		return []*pgEntry{e}, nil
	}
	table := make(map[string]*pgEntry)
	var order []*pgEntry
	var keyBuf []byte
	for _, row := range rows {
		keyBuf = keyBuf[:0]
		for _, idx := range g.groupIdx {
			keyBuf = row[idx].AppendKey(keyBuf)
		}
		e, ok := table[string(keyBuf)]
		if !ok {
			groupVals := make(types.Row, len(g.groupIdx))
			for i, idx := range g.groupIdx {
				groupVals[i] = row[idx]
			}
			e = &pgEntry{key: string(keyBuf), groupVals: groupVals, states: make([]pAggState, len(g.aggs))}
			table[e.key] = e
			order = append(order, e)
		}
		for i := range g.aggs {
			if err := accumulatePartial(&e.states[i], &g.aggs[i], row); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}

// accumulatePartial is the morsel-local accumulate: DISTINCT values are
// only collected (deduplicated locally), everything else folds exactly
// as the serial accumulate does.
func accumulatePartial(st *pAggState, spec *groupSpec, row types.Row) error {
	if spec.star {
		st.count++
		return nil
	}
	v, err := spec.arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if spec.distinct {
		if st.distinct == nil {
			st.distinct = make(map[string]bool)
		}
		key := string(v.AppendKey(nil))
		if st.distinct[key] {
			return nil
		}
		st.distinct[key] = true
		st.dvals = append(st.dvals, v)
		return nil
	}
	st.count++
	return accumulateValue(&st.aggState, spec, v)
}

// sumValue renders a partial SUM/AVG state as a single value of the
// partial's dominant type, so merging reuses the serial promotion rules.
func sumValue(st *aggState) types.Value {
	switch st.sumTyp {
	case types.TFloat:
		return types.NewFloat(st.sumFloat)
	case types.TDecimal:
		return types.NewDecimal(st.sumDec)
	}
	return types.NewInt(st.sumInt)
}

// mergeAggState folds one morsel's partial state into the final state.
// DISTINCT values are replayed in first-seen order against the global
// seen-set (metered through acct); sums merge through the same
// promotion switch the serial accumulate uses, so int and decimal
// aggregates are bit-identical to a serial run (float sums may differ
// by association only).
func mergeAggState(dst *aggState, spec *groupSpec, src *pAggState, acct *memAcct) error {
	if spec.distinct {
		for _, v := range src.dvals {
			if dst.distinct == nil {
				dst.distinct = make(map[string]bool)
			}
			key := string(v.AppendKey(nil))
			if dst.distinct[key] {
				continue
			}
			dst.distinct[key] = true
			if err := acct.add(int64(len(key)) + 48); err != nil {
				return err
			}
			dst.count++
			if err := accumulateValue(dst, spec, v); err != nil {
				return err
			}
		}
		return nil
	}
	dst.count += src.count
	if !src.sawVal {
		return nil
	}
	switch spec.op {
	case plan.AggSum, plan.AggAvg:
		return accumulateValue(dst, spec, sumValue(&src.aggState))
	case plan.AggMin:
		return accumulateValue(dst, spec, src.min)
	case plan.AggMax:
		return accumulateValue(dst, spec, src.max)
	}
	return nil
}

func (g *parallelGroupByIter) Next() (types.Row, bool, error) {
	if g.pos >= len(g.groups) {
		return nil, false, nil
	}
	row := g.groups[g.pos]
	g.pos++
	return row, true, nil
}

func (g *parallelGroupByIter) Close() {
	g.releasePartials()
	g.acct.close()
	g.groups = nil
}

// --- partitioned hash-join build ----------------------------------------

// partTable is a hash-partitioned join build: partition p owns the keys
// with hash64(key) % len(parts) == p, so the partitions are disjoint
// and each can be built by one worker without locking.
type partTable struct {
	parts []map[string][]types.Row
}

func (p *partTable) lookup(key []byte) []types.Row {
	return p.parts[hash64(key)%uint64(len(p.parts))][string(key)]
}

// buildPartTable builds the hash table for materialized build rows in
// two parallel phases: key encoding (contiguous row chunks, one per
// worker) and partition insertion (one partition per worker, scanning
// rows in index order so per-key row order matches the serial build).
func buildPartTable(rows []types.Row, keys []EvalFn, workers int) (*partTable, error) {
	n := len(rows)
	keyOf := make([][]byte, n)
	partOf := make([]int32, n)
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = panicErr("parallel hash build worker", r)
				}
			}()
			var arena, buf []byte
			for i := lo; i < hi; i++ {
				key, null, err := appendEvalKey(buf[:0], rows[i], keys)
				buf = key[:0]
				if err != nil {
					errs[w] = err
					return
				}
				if null {
					partOf[i] = -1 // NULL keys never match
					continue
				}
				// Copy the key into a worker-local arena so keyOf entries
				// stay valid while buf is reused (previous arenas remain
				// alive through the slices that point into them).
				if len(arena)+len(key) > cap(arena) {
					size := 4096
					if len(key) > size {
						size = len(key)
					}
					arena = make([]byte, 0, size)
				}
				start := len(arena)
				arena = append(arena, key...)
				keyOf[i] = arena[start:len(arena):len(arena)]
				partOf[i] = int32(hash64(keyOf[i]) % uint64(workers))
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	pt := &partTable{parts: make([]map[string][]types.Row, workers)}
	insErrs := make([]error, workers)
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					insErrs[p] = panicErr("parallel hash build worker", r)
				}
			}()
			m := make(map[string][]types.Row)
			for i, pi := range partOf {
				if int(pi) == p {
					m[string(keyOf[i])] = append(m[string(keyOf[i])], rows[i])
				}
			}
			pt.parts[p] = m
		}(p)
	}
	wg.Wait()
	for _, err := range insErrs {
		if err != nil {
			return nil, err
		}
	}
	return pt, nil
}

// --- parallel plan recognition ------------------------------------------

// buildParallel recognizes plan shapes executable as fused morsel
// pipelines. handled=false falls back to the serial operators (which
// may still use parallel scans for their children).
func (b *Builder) buildParallel(n plan.Node) (it Iterator, handled bool, err error) {
	switch n := n.(type) {
	case *plan.Scan:
		spec, err := b.scanSpec(n, nil)
		if err != nil {
			return nil, true, err
		}
		return b.newStreamScan(spec), true, nil
	case *plan.Filter, *plan.Project:
		if b.analyze {
			// EXPLAIN ANALYZE keeps operator boundaries so every plan
			// line reports its own counters; only the scan runs parallel.
			return nil, false, nil
		}
		spec, ok, err := b.tryMorselSpec(n)
		if err != nil || !ok {
			return nil, ok, err
		}
		return b.newStreamScan(spec), true, nil
	case *plan.GroupBy:
		if b.analyze {
			return nil, false, nil
		}
		spec, ok, err := b.tryMorselSpec(n.Input)
		if err != nil || !ok {
			return nil, ok, err
		}
		it, err := b.newParallelGroupBy(n, spec)
		if err != nil {
			return nil, true, err
		}
		return it, true, nil
	}
	return nil, false, nil
}

// tryMorselSpec matches Scan, Filter(Scan), Project(Scan), and
// Project(Filter(Scan)) subtrees.
func (b *Builder) tryMorselSpec(n plan.Node) (*morselSpec, bool, error) {
	switch n := n.(type) {
	case *plan.Scan:
		spec, err := b.scanSpec(n, nil)
		return spec, true, err
	case *plan.Filter:
		scan, ok := n.Input.(*plan.Scan)
		if !ok {
			return nil, false, nil
		}
		spec, err := b.scanSpec(scan, n.Cond)
		return spec, true, err
	case *plan.Project:
		spec, ok, err := b.tryMorselSpec(n.Input)
		if err != nil {
			return nil, true, err
		}
		if !ok || spec.project != nil {
			return nil, false, nil
		}
		slots := slotsOf(n.Input)
		for _, c := range n.Cols {
			fn, err := Compile(c.Expr, slots)
			if err != nil {
				return nil, true, err
			}
			spec.project = append(spec.project, fn)
		}
		return spec, true, nil
	}
	return nil, false, nil
}

// scanSpec builds the morsel fragment for a scan with an optional fused
// filter (range constraints are extracted for zone-map pruning, exactly
// as the serial fused-scan path does).
func (b *Builder) scanSpec(scan *plan.Scan, cond plan.Expr) (*morselSpec, error) {
	tbl, ok := b.db.Table(scan.Info.Name)
	if !ok {
		return nil, fmt.Errorf("exec: table %s does not exist", scan.Info.Name)
	}
	spec := &morselSpec{snap: tbl.SnapshotAt(b.ts), ords: scan.Ords}
	if cond != nil {
		spec.ranges = extractRanges(cond, scan)
		fn, err := Compile(cond, slotsOf(scan))
		if err != nil {
			return nil, err
		}
		spec.filter = fn
	}
	return spec, nil
}

func (b *Builder) newStreamScan(spec *morselSpec) Iterator {
	return &streamScanIter{spec: spec, workers: b.workers, morselSize: b.morselSize, met: b.met, gov: b.gov}
}

func (b *Builder) newParallelGroupBy(n *plan.GroupBy, spec *morselSpec) (Iterator, error) {
	slots := slotsOf(n.Input)
	it := &parallelGroupByIter{
		spec:       spec,
		workers:    b.workers,
		morselSize: b.morselSize,
		met:        b.met,
		gov:        b.gov,
		scalarAgg:  len(n.GroupCols) == 0,
	}
	for _, g := range n.GroupCols {
		idx, ok := slots[g]
		if !ok {
			return nil, fmt.Errorf("exec: group column #%d missing from input", g)
		}
		it.groupIdx = append(it.groupIdx, idx)
	}
	for _, a := range n.Aggs {
		spec := groupSpec{op: a.Op, star: a.Star, distinct: a.Distinct, typ: b.ctx.Type(a.ID)}
		if !a.Star {
			fn, err := Compile(a.Arg, slots)
			if err != nil {
				return nil, err
			}
			spec.arg = fn
		}
		it.aggs = append(it.aggs, spec)
	}
	return it, nil
}
