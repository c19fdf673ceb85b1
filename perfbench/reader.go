package main

import (
	"context"
	"fmt"
	"math/rand"

	"vdm/internal/bind"
	"vdm/internal/core"
	"vdm/internal/engine"
	"vdm/internal/htapbench"
	"vdm/internal/metrics"
	"vdm/internal/sql"
)

// shape is one reader statement kind.
type shape uint8

const (
	shPage      shape = iota // htap: top-k page over the union view
	shAgg                    // htap: group-by over the union view
	shFilter                 // htap: count/sum filter on hb_active (no union, no join: the control)
	shConserve               // htap: conservation check
	shJeibCount              // vdm: Fig. 4 count(*) over JournalEntryItemBrowser
	shJeibPage               // vdm: Fig. 3 paging over JournalEntryItemBrowser
	shExtPage                // vdm: Fig. 14 paging over an extension view
	numShapes
)

var shapeNames = [numShapes]string{"page", "agg", "filter", "conserve", "jeib_count", "jeib_page", "ext_page"}

func (s shape) String() string { return shapeNames[s] }

// htapCycle is the htap reader's fixed statement order. A fixed cycle
// (rather than a weighted random pick) keeps the proportion of each
// shape identical from run to run, so the pooled statement rate does
// not move with the seed.
var htapCycle = []shape{shPage, shAgg, shFilter, shConserve}

// vdmCycle is the vdm reader's fixed statement order.
var vdmCycle = []shape{shJeibCount, shJeibPage, shExtPage}

// Statement parameters come from small fixed sets so each statement
// text repeats within a run: htap's plan cache can then hit, and vdm's
// repeat check has repeats to compare.
const (
	pageSize    = 50
	pageOffsets = 10 // page numbers 0..9 of every paging shape
	jeibPageLen = 100
	extPageLen  = 10
	extViews    = 100 // s4.Fig14Full deploys C_Document000..099
)

var filterMinCents = []int64{1_000, 50_000, 125_000, 250_000, 400_000, 600_000, 800_000, 950_000}

const (
	aggSQL = `select doc_type, count(*) n, sum(amount) total from ` + htapbench.ConsumptionView +
		` group by doc_type order by doc_type`
	conserveSQL = `select sum(v) from (
		select amount v from hb_active
		union all
		select 0.00 - balance from hb_ledger
	) t`
	jeibCountSQL = `select count(*) from JournalEntryItemBrowser`
)

func pageSQL(offset int) string {
	return fmt.Sprintf(`select bid, id, doc_type, amount, currency_name from %s `+
		`order by amount desc, bid, id limit %d offset %d`, htapbench.ConsumptionView, pageSize, offset)
}

func filterSQL(minCents int64, cur string) string {
	return fmt.Sprintf(`select count(*), sum(amount) from hb_active `+
		`where amount >= %d.%02d and currency = '%s'`, minCents/100, minCents%100, cur)
}

func jeibPageSQL(offset int) string {
	return fmt.Sprintf(`select * from JournalEntryItemBrowser limit %d offset %d`, jeibPageLen, offset)
}

// extPageSQL names extension view i/2 in its plain-join variant (X) for
// even i and its CASE JOIN variant (XC) for odd i, so walking i visits
// both variants of each view in turn.
func extPageSQL(i, offset int) string {
	suffix := "X"
	if i%2 == 1 {
		suffix = "XC"
	}
	return fmt.Sprintf(`select * from C_Document%03d%s limit %d offset %d`, (i/2)%extViews, suffix, extPageLen, offset)
}

// deck deals 0..n-1 in a seeded random order and reshuffles after each
// full pass, so every parameter value occurs equally often in a run and
// a statement's cost mix does not depend on the seed (a plain random
// draw over-samples some offsets in one run and others in the next).
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (d *deck) deal() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// reader is one closed-loop analytical session.
type reader struct {
	e     *engine.Engine
	user  string
	cycle []shape
	pos   int // next position in cycle
	ext   int // position of the extension-view walk
	check *checker
	// One deck per parameterized shape.
	pages, filters, jeibPages, extPages *deck
	// The plan cache on or off decides how a traced statement is split:
	// with the cache off every statement is parsed, bound and optimized,
	// so the traced run calls those layers one by one exactly as the
	// engine would; with it on, splitting would bypass the cache, so the
	// statement stays one engine.query span.
	cached bool
	trace  *sessionTrace
	stmtID int64
	// layer counters per statement (traced run only).
	counters *stmtCounters
}

func newReader(e *engine.Engine, user string, cycle []shape, seed int64, cached bool, ck *checker) *reader {
	rng := rand.New(rand.NewSource(seed ^ 0x7eade7))
	return &reader{e: e, user: user, cycle: cycle, check: ck, cached: cached,
		pages:     &deck{rng: rng, n: pageOffsets},
		filters:   &deck{rng: rng, n: len(filterMinCents) * len(currencies)},
		jeibPages: &deck{rng: rng, n: pageOffsets},
		extPages:  &deck{rng: rng, n: pageOffsets},
	}
}

// next returns the next statement of the cycle and its text.
func (r *reader) next() (shape, string) {
	s := r.cycle[r.pos]
	r.pos = (r.pos + 1) % len(r.cycle)
	switch s {
	case shPage:
		return s, pageSQL(r.pages.deal() * pageSize)
	case shAgg:
		return s, aggSQL
	case shFilter:
		f := r.filters.deal()
		return s, filterSQL(filterMinCents[f%len(filterMinCents)], currencies[f/len(filterMinCents)])
	case shConserve:
		return s, conserveSQL
	case shJeibCount:
		return s, jeibCountSQL
	case shJeibPage:
		return s, jeibPageSQL(r.jeibPages.deal() * jeibPageLen)
	default:
		i := r.ext
		r.ext = (r.ext + 1) % (2 * extViews)
		return s, extPageSQL(i, r.extPages.deal()*extPageLen)
	}
}

// do runs one statement and checks its result. It returns the
// statement's error (nil on success); a wrong result is recorded in the
// checker, not returned.
func (r *reader) do(ctx context.Context, s shape, text string) error {
	r.stmtID++
	var res *engine.Result
	var err error
	if r.trace == nil {
		res, err = r.e.QueryAsContext(ctx, r.user, text)
	} else {
		res, err = r.traced(ctx, s, text)
	}
	if err != nil {
		return err
	}
	r.check.result(s, text, res)
	return nil
}

// traced runs a statement through the layers' public calls, one span
// each, and records the executor and storage counter deltas.
func (r *reader) traced(ctx context.Context, s shape, text string) (*engine.Result, error) {
	before := r.e.Metrics()
	t := r.trace
	root := t.begin(spStmt, -1, r.stmtID, uint8(s))
	defer t.end(root)
	// The lease the benchmark takes here is its own probe of
	// DB.AcquireRead at the moment the statement starts; the engine
	// takes its own inside. Holding it over the statement pins no
	// older snapshot than the engine's.
	sp := t.begin(spLease, root, r.stmtID, uint8(s))
	lease := r.e.DB().AcquireRead()
	t.end(sp)
	defer lease.Release()
	var res *engine.Result
	var err error
	if r.cached {
		sp = t.begin(spQuery, root, r.stmtID, uint8(s))
		res, err = r.e.QueryAsContext(ctx, r.user, text)
		t.end(sp)
	} else {
		res, err = r.plannedRun(root, s, text)
	}
	r.counters.add(s, before, r.e.Metrics())
	return res, err
}

// plannedRun is QueryAsContext with the plan cache off, split into its
// layers: parse, bind, optimize under the engine's profile, run.
func (r *reader) plannedRun(root int, s shape, text string) (*engine.Result, error) {
	t := r.trace
	sp := t.begin(spParse, root, r.stmtID, uint8(s))
	body, err := sql.ParseQuery(text)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spBind, root, r.stmtID, uint8(s))
	p, err := bind.New(r.e.Catalog(), r.user).BindQuery(body)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin(spOptimize, root, r.stmtID, uint8(s))
	opt := core.NewOptimizer(p.Ctx, r.e.Profile())
	opt.SetCosting(r.e.CostingEnabled())
	p.Root = opt.Optimize(p.Root)
	p.Est = opt.Estimates()
	t.end(sp)
	sp = t.begin(spRun, root, r.stmtID, uint8(s))
	res, err := r.e.Run(p)
	t.end(sp)
	return res, err
}

// stmtCounters accumulates, per shape, the engine counter deltas of
// the traced run's statements.
type stmtCounters struct {
	stmts        [numShapes]int64
	vecFallbacks [numShapes]int64
	vecBatches   [numShapes]int64
	zoneSkips    [numShapes]int64
	cacheHits    int64
	cacheMisses  int64
}

var vecFallbackCounters = []string{
	"exec.vec_fallbacks.expression", "exec.vec_fallbacks.or", "exec.vec_fallbacks.sort",
	"exec.vec_fallbacks.union", "exec.vec_fallbacks.distinct", "exec.vec_fallbacks.analyze_parallel",
}

func delta(a, b metrics.Snapshot, name string) int64 {
	x, _ := a.Get(name)
	y, _ := b.Get(name)
	return y - x
}

func (c *stmtCounters) add(s shape, before, after metrics.Snapshot) {
	c.stmts[s]++
	for _, n := range vecFallbackCounters {
		c.vecFallbacks[s] += delta(before, after, n)
	}
	c.vecBatches[s] += delta(before, after, "exec.vec_batches")
	c.zoneSkips[s] += delta(before, after, "storage.zonemap_block_skips")
	c.cacheHits += delta(before, after, "plancache.hits")
	c.cacheMisses += delta(before, after, "plancache.misses")
}

// joinsAfter returns the join count of each shape's optimized plan,
// from a fixed set of statements so the count repeats exactly: offset 0
// for the paging shapes, and the mean over all 200 extension-view
// variants for ext_page.
func joinsAfter(e *engine.Engine, user string, shapes []shape) (map[shape]float64, error) {
	out := map[shape]float64{}
	count := func(q string) (int, error) {
		st, err := e.PlanStats(user, q, true)
		if err != nil {
			return 0, err
		}
		return st.Joins, nil
	}
	for _, s := range shapes {
		var texts []string
		switch s {
		case shPage:
			texts = []string{pageSQL(0)}
		case shAgg:
			texts = []string{aggSQL}
		case shFilter:
			texts = []string{filterSQL(filterMinCents[0], currencies[0])}
		case shConserve:
			texts = []string{conserveSQL}
		case shJeibCount:
			texts = []string{jeibCountSQL}
		case shJeibPage:
			texts = []string{jeibPageSQL(0)}
		case shExtPage:
			for i := 0; i < 2*extViews; i++ {
				texts = append(texts, extPageSQL(i, 0))
			}
		}
		total := 0
		for _, q := range texts {
			j, err := count(q)
			if err != nil {
				return nil, fmt.Errorf("joins of %s: %w", s, err)
			}
			total += j
		}
		out[s] = float64(total) / float64(len(texts))
	}
	return out, nil
}
