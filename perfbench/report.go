package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vdm/internal/metrics"
	"vdm/internal/storage"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value; 0 for counts and ratios
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseE2E holds the end-to-end numbers of one measured phase.
type phaseE2E struct {
	writeTPS  float64 // committed writer transactions per second
	readQPS   float64 // completed reader statements per second
	pooled    *samples
	cycle     *samples
	attempted int64
	failed    int64
}

func (p *phaseE2E) opsPerSec() float64 { return p.writeTPS + p.readQPS }

func e2eOf(win window, ws, rs *sessionStats) *phaseE2E {
	p := &phaseE2E{pooled: &samples{}}
	for _, st := range []*sessionStats{ws, rs} {
		if st == nil {
			continue
		}
		p.pooled.d = append(p.pooled.d, st.ops.d...)
		p.pooled.failed += st.ops.failed
		// The reader's cycle, where there is a reader, is the analytical
		// user's unit of work; it overrides the writer's.
		p.cycle = &st.cycles
		p.attempted += st.attempted
		p.failed += st.failed
	}
	if ws != nil {
		p.writeTPS = float64(len(ws.ops.d)) / win.seconds()
	}
	if rs != nil {
		p.readQPS = float64(len(rs.ops.d)) / win.seconds()
	}
	return p
}

// e2eMetrics are the end-to-end metrics of an untraced run, in the
// order BENCHMARK.json lists them.
func e2eMetrics(res *result) ([]metric, error) {
	p := e2eOf(res.win, res.writer, res.reader)
	var setups []float64
	for _, d := range res.setups {
		setups = append(setups, d.Seconds())
	}
	out := []metric{{name: "setup_s", unit: "s", value: median(setups), n: len(setups)}}
	add := func(name, unit string, s *samples, q float64, conv func(time.Duration) float64) error {
		v, ok := s.quantile(q)
		if !ok {
			return fmt.Errorf("%s: %d samples do not support the %g quantile (need %d beyond it)", name, s.n(), q, minBeyond)
		}
		out = append(out, metric{name: name, unit: unit, value: conv(v), n: s.n()})
		return nil
	}
	if err := add("op_p50_us", "us", p.pooled, 0.5, us); err != nil {
		return nil, err
	}
	// p90 is the highest percentile every workload's sample supports
	// (a vdm run completes a few hundred statements).
	if err := add("op_p90_us", "us", p.pooled, 0.9, us); err != nil {
		return nil, err
	}
	if err := add("cycle_ms", "ms", p.cycle, 0.5, ms); err != nil {
		return nil, err
	}
	out = append(out, metric{name: "peak_rss_mb", unit: "MiB", value: res.peakRSSMiB})
	return out, nil
}

// layerReport is the traced run's per-layer output.
type layerReport struct {
	metrics []metric
	maint   *sessionTrace
}

// quantileOr0 returns the quantile in the given unit, or 0 when the
// samples do not support it (no work of that kind, or too few).
func quantileOr0(s *samples, q float64, conv func(time.Duration) float64) float64 {
	if v, ok := s.quantile(q); ok {
		return conv(v)
	}
	return 0
}

// meanOf is the mean over completed operations.
func meanOf(s *samples, conv func(time.Duration) float64) float64 {
	if len(s.d) == 0 {
		return 0
	}
	return conv(s.sum()) / float64(len(s.d))
}

func maxOf(s *samples) time.Duration {
	var m time.Duration
	for _, d := range s.d {
		if d > m {
			m = d
		}
	}
	return m
}

// perSpan collects, from the traces, the durations of spans of one
// name, per class.
func perSpan(traces []*sessionTrace, name spanName) map[uint8]*samples {
	out := map[uint8]*samples{}
	for _, t := range traces {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if s.name != name {
				continue
			}
			c := out[s.class]
			if c == nil {
				c = &samples{}
				out[s.class] = c
			}
			c.add(time.Duration(s.end - s.start))
		}
	}
	return out
}

func allOf(m map[uint8]*samples) *samples {
	out := &samples{}
	for _, s := range m {
		out.d = append(out.d, s.d...)
	}
	return out
}

// layerShapes are the statement shapes the per-layer metrics name,
// every one reported on every workload (0 where the workload does not
// run the shape).
var layerShapes = []shape{shPage, shAgg, shFilter, shJeibCount, shJeibPage, shExtPage}

func buildLayers(res *result, m *maintainer, c *stmtCounters, joins map[shape]float64,
	before, after metrics.Snapshot, db *storage.DB) *layerReport {
	traces := []*sessionTrace{m.trace}
	if res.writer != nil {
		traces = append(traces, res.writer.trace)
	}
	if res.reader != nil {
		traces = append(traces, res.reader.trace)
	}
	secs := res.win.seconds()
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }

	// sql / bind / core, per vdm shape.
	for _, sp := range []struct {
		name  spanName
		label string
	}{{spParse, "sql.parse_us"}, {spBind, "bind.bind_us"}, {spOptimize, "core.optimize_us"}} {
		by := perSpan(traces, sp.name)
		for _, s := range []shape{shJeibCount, shJeibPage, shExtPage} {
			v := 0.0
			if x := by[uint8(s)]; x != nil {
				v = quantileOr0(x, 0.5, us)
			}
			add(sp.label+"."+s.String(), "us", v)
		}
	}
	for _, s := range layerShapes {
		add("core.joins_after."+s.String(), "count", joins[s])
	}

	// engine: plan cache.
	hitRatio := 0.0
	if c != nil && c.cacheHits+c.cacheMisses > 0 {
		hitRatio = float64(c.cacheHits) / float64(c.cacheHits+c.cacheMisses)
	}
	add("engine.plancache_hit_ratio", "ratio", hitRatio)

	// exec: per-shape run time (Engine.Run with the plan cache off,
	// QueryContext with it on) and per-statement counters.
	runs := perSpan(traces, spRun)
	queries := perSpan(traces, spQuery)
	for _, s := range layerShapes {
		v := 0.0
		if x := runs[uint8(s)]; x != nil {
			v = quantileOr0(x, 0.5, ms)
		} else if x := queries[uint8(s)]; x != nil {
			v = quantileOr0(x, 0.5, ms)
		}
		add("exec.run_ms."+s.String(), "ms", v)
	}
	for _, s := range layerShapes {
		var fb, vb, zs float64
		if c != nil && c.stmts[s] > 0 {
			n := float64(c.stmts[s])
			fb, vb, zs = float64(c.vecFallbacks[s])/n, float64(c.vecBatches[s])/n, float64(c.zoneSkips[s])/n
		}
		add("exec.vec_fallbacks_per_stmt."+s.String(), "count", fb)
		add("exec.vec_batches_per_stmt."+s.String(), "count", vb)
		add("storage.zonemap_skips_per_stmt."+s.String(), "count", zs)
	}

	// storage read path.
	lease := allOf(perSpan(traces, spLease))
	add("storage.lease_us.p50", "us", quantileOr0(lease, 0.5, us))
	add("storage.lease_us.max", "us", us(maxOf(lease)))

	// storage write path.
	body := allOf(perSpan(traces, spTxnBody))
	commit := allOf(perSpan(traces, spCommit))
	add("storage.txn_body_us.p50", "us", quantileOr0(body, 0.5, us))
	add("storage.commit_us.p50", "us", quantileOr0(commit, 0.5, us))
	add("storage.commit_us.p99", "us", quantileOr0(commit, 0.99, us))

	// storage maintenance.
	for _, x := range []struct {
		label string
		s     *samples
	}{{"storage.merge_ms", &m.merges}, {"storage.vacuum_ms", &m.vacuums}, {"storage.checkpoint_ms", &m.ckpts}} {
		add(x.label+".p50", "ms", quantileOr0(x.s, 0.5, ms))
		add(x.label+".max", "ms", ms(maxOf(x.s)))
		add(x.label+".count", "count", float64(x.s.n()))
	}
	add("storage.maint_busy_frac", "ratio", m.busy().Seconds()/secs)
	commits := float64(delta(before, after, "storage.commits"))
	vpc := 0.0
	if commits > 0 {
		vpc = float64(m.vacuumed) / commits
	}
	add("storage.vacuumed_versions_per_commit", "ratio", vpc)
	versions, live := liveVersions(db)
	vpl := 0.0
	if live > 0 {
		vpl = float64(versions) / float64(live)
	}
	add("storage.versions_per_live_row", "ratio", vpl)

	// wal.
	fsyncs := float64(delta(before, after, "wal.fsyncs"))
	cpf := 0.0
	if fsyncs > 0 {
		cpf = commits / fsyncs
	}
	add("wal.commits_per_fsync", "ratio", cpf)
	add("wal.fsyncs_per_s", "1/s", fsyncs/secs)

	// Self time per span name, as a share of all recorded span time
	// (roots and maintenance), so the layers' shares add up to 1.
	self := selfTimes(traces)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for i, d := range self {
		share := 0.0
		if total > 0 {
			share = d.Seconds() / total.Seconds()
		}
		add("self_share."+spanNames[i], "ratio", share)
	}

	// Tracing overhead: the same end-to-end numbers from the untraced
	// half of this run and from the traced half.
	traced := e2eOf(res.win, res.writer, res.reader)
	for _, x := range []struct {
		label string
		p     *phaseE2E
	}{{"untraced", res.untraced}, {"traced", traced}} {
		add("e2e."+x.label+".ops_per_s", "op/s", x.p.opsPerSec())
		add("e2e."+x.label+".op_p50_us", "us", quantileOr0(x.p.pooled, 0.5, us))
		// A mean, because half a run holds too few htap cycles for a
		// reportable median.
		add("e2e."+x.label+".cycle_mean_ms", "ms", meanOf(x.p.cycle, ms))
	}
	return &layerReport{metrics: out, maint: m.trace}
}

// printClasses prints every per-class latency series with its count.
func printClasses(out io.Writer, role string, st *sessionStats) {
	if st == nil {
		return
	}
	names := make([]string, 0, len(st.class))
	for n := range st.class {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := st.class[n]
		line := fmt.Sprintf("#   %-7s %-11s n=%-7d mean=%.1fus", role, n, s.n(), meanOf(s, us))
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if v, ok := s.quantile(q); ok {
				line += fmt.Sprintf(" p%g=%.1fus", q*100, us(v))
			}
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "#   %-7s attempted=%d failed=%d", role, st.attempted, st.failed)
	if st.attempted > 0 {
		fmt.Fprintf(out, " failed_share=%.4f", float64(st.failed)/float64(st.attempted))
	}
	fmt.Fprintln(out)
	for _, e := range st.errs {
		fmt.Fprintf(out, "#   %-7s error: %s\n", role, e)
	}
}
