package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vdm/internal/decimal"
	"vdm/internal/engine"
	"vdm/internal/htapbench"
	"vdm/internal/types"
)

func TestQuantileEdgeCases(t *testing.T) {
	var s samples
	if _, ok := s.quantile(0.5); ok {
		t.Fatal("0 samples: median reported")
	}
	s.add(time.Millisecond)
	if _, ok := s.quantile(0.5); ok {
		t.Fatal("1 sample: median reported with no samples beyond it")
	}
	for i := 2; i <= 10; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	if _, ok := s.quantile(0.5); ok {
		t.Fatal("10 samples: median reported with 5 samples beyond it")
	}
	// 10 more samples in reverse order: the median of 1..20 ms by
	// nearest rank is the 10th, with 10 beyond it.
	for i := 20; i > 10; i-- {
		s.add(time.Duration(i) * time.Millisecond)
	}
	if v, ok := s.quantile(0.5); !ok || v != 10*time.Millisecond {
		t.Fatalf("20 samples: median = %v, %v; want 10ms, true", v, ok)
	}
	if _, ok := s.quantile(0.99); ok {
		t.Fatal("20 samples: p99 reported")
	}
	var big samples
	for i := 1; i <= 1000; i++ {
		big.add(time.Duration(i))
	}
	if v, ok := big.quantile(0.99); !ok || v != 990 {
		t.Fatalf("1000 samples: p99 = %v, %v; want 990ns, true", v, ok)
	}
	// Failed operations rank above every duration: with 11 failures
	// among 1011 operations the p99 falls on a failure.
	big.failed = 11
	if _, ok := big.quantile(0.99); ok {
		t.Fatal("p99 reported although it falls among failed operations")
	}
	if v, ok := big.quantile(0.5); !ok || v != 506 {
		t.Fatalf("median with failures = %v, %v; want 506ns, true", v, ok)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median of even count = %v, want 2.5", got)
	}
}

// smallFixture loads the htapbench fixture at a small scale on an
// in-memory engine.
func smallFixture(t *testing.T, scale int) *engine.Engine {
	t.Helper()
	e := engine.NewWithOptions(engine.Options{})
	t.Cleanup(func() { e.Close() })
	if _, err := htapbench.SetupFixture(e, htapbench.Config{Writers: 1, Readers: 1, Scale: scale, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return e
}

func liveRows(t *testing.T, e *engine.Engine, table string) int {
	t.Helper()
	tbl, ok := e.DB().Table(table)
	if !ok {
		t.Fatalf("table %s missing", table)
	}
	return tbl.SnapshotAt(e.DB().CurrentTS()).Count()
}

func TestWriterMixKeepsCountsFlat(t *testing.T) {
	const scale = 2000
	e := smallFixture(t, scale)
	w, err := newWriter(e.DB(), scale, 3)
	if err != nil {
		t.Fatal(err)
	}
	active0, draft0 := liveRows(t, e, "hb_active"), liveRows(t, e, "hb_draft")
	for i := 1; i <= 10_000; i++ {
		if err := w.do(w.next()); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%len(writerCycle) != 0 {
			continue
		}
		if a, d := liveRows(t, e, "hb_active"), liveRows(t, e, "hb_draft"); a != active0 || d != draft0 {
			t.Fatalf("after %d ops: active %d (start %d), draft %d (start %d)", i, a, active0, d, draft0)
		}
	}
	res, err := e.Query(conserveSQL)
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkConserve(res); msg != "" {
		t.Fatal(msg)
	}
}

func row(vals ...types.Value) types.Row { return types.Row(vals) }

func pageRow(bid, id int64, cents int64) types.Row {
	return row(types.NewInt(bid), types.NewInt(id), types.NewString("INV"),
		types.NewDecimal(decimal.New(cents, 2)), types.NewString("Euro"))
}

func TestChecksRejectWrongResults(t *testing.T) {
	zero := &engine.Result{Rows: []types.Row{row(types.NewDecimal(decimal.New(0, 2)))}}
	if msg := checkConserve(zero); msg != "" {
		t.Fatalf("conservation rejected a zero sum: %s", msg)
	}
	off := &engine.Result{Rows: []types.Row{row(types.NewDecimal(decimal.New(1, 2)))}}
	if checkConserve(off) == "" {
		t.Fatal("conservation accepted a non-zero sum")
	}

	good := &engine.Result{Rows: []types.Row{pageRow(1, 5, 900), pageRow(1, 2, 500), pageRow(1, 3, 500), pageRow(2, 1, 500)}}
	if msg := checkPage(good); msg != "" {
		t.Fatalf("page check rejected an ordered page: %s", msg)
	}
	for name, rows := range map[string][]types.Row{
		"amount ascends": {pageRow(1, 1, 100), pageRow(1, 2, 200)},
		"bid descends":   {pageRow(2, 1, 100), pageRow(1, 2, 100)},
		"id descends":    {pageRow(1, 9, 100), pageRow(1, 2, 100)},
	} {
		if checkPage(&engine.Result{Rows: rows}) == "" {
			t.Errorf("page check accepted a page whose %s", name)
		}
	}
	var long []types.Row
	for i := 0; i <= pageSize; i++ {
		long = append(long, pageRow(1, int64(i), 100))
	}
	if checkPage(&engine.Result{Rows: long}) == "" {
		t.Error("page check accepted a page longer than the limit")
	}

	c := newChecker()
	a := &engine.Result{Rows: []types.Row{row(types.NewInt(1)), row(types.NewInt(2))}}
	b := &engine.Result{Rows: []types.Row{row(types.NewInt(2)), row(types.NewInt(1))}}
	c.result(shJeibPage, "q", a)
	c.result(shJeibPage, "q", a)
	if len(c.violations) != 0 {
		t.Fatalf("repeat check rejected an identical repeat: %v", c.violations)
	}
	c.result(shJeibPage, "q", b)
	if len(c.violations) != 1 {
		t.Fatalf("repeat check accepted a changed repeat: %v", c.violations)
	}

	if !sameRows(a, b) {
		t.Error("case-join comparison rejected the same rows in another order")
	}
	if sameRows(a, &engine.Result{Rows: []types.Row{row(types.NewInt(1)), row(types.NewInt(3))}}) {
		t.Error("case-join comparison accepted different rows")
	}
}

// TestSmoke runs every workload briefly and requires zero violations and
// zero failed operations; the oltp run goes through the command line
// and its JSON line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full fixtures")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if code := run([]string{"--workload", "oltp", "--seconds", "2", "--seed", "5", "-dir", dir}, &out); code != 0 {
		t.Fatalf("oltp exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !got.Correct || got.Attempted == 0 || got.Failed != 0 {
		t.Fatalf("oltp summary: %+v", got)
	}
	spec := loadSpec(t)
	if len(got.Metrics) != len(spec.EndToEnd) {
		t.Errorf("JSON line has %d metrics, BENCHMARK.json lists %d end-to-end ones", len(got.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if v, ok := got.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): got %+v", m.Name, m.Unit, v)
		}
	}

	// htap and vdm run traced, which also covers the layer split.
	for _, name := range []string{"htap", "vdm"} {
		res, err := runWorkload(workloads[name], config{workload: name, seed: 2, seconds: 2, trace: true, dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := res.check.violations; len(v) != 0 {
			t.Errorf("%s: violations %v", name, v)
		}
		p := e2eOf(res.win, res.writer, res.reader)
		if p.attempted == 0 || p.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", name, p.attempted, p.failed)
		}
		if res.layers == nil {
			t.Fatalf("%s: no per-layer metrics", name)
		}
		emitted := map[string]string{}
		for _, m := range res.layers.metrics {
			emitted[m.name] = m.unit
		}
		if len(emitted) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json lists %d", name, len(emitted), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if u, ok := emitted[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: per-layer metric %s (%s) emitted as %q, %v", name, m.Name, m.Unit, u, ok)
			}
		}
	}
}

type specMetric struct {
	Name string
	Unit string
}

// loadSpec reads the metric lists of the repository's BENCHMARK.json,
// which the JSON line must match name for name.
func loadSpec(t *testing.T) (spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}
