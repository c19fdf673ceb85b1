package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"vdm/internal/plan"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// Early termination of the morsel-parallel streaming operators: pulling
// k rows and closing must cost O(k) batches, not O(table), return
// exactly serial's first k rows, and leave no worker goroutine or
// snapshot pin behind.

const (
	earlyProbeRows = 5000 // probe table "big": 500 batches of 10
	earlyBatch     = 10
	earlyWorkers   = 2
)

// earlyEnv builds big(x, k) with k = x % 55 and dim(id, name) with ids
// 0..49 and 100..109: probe rows with k >= 50 find no partner, and dim
// rows 100..109 are never matched (the build-left outer tail).
func earlyEnv(t *testing.T) (*storage.DB, *plan.Context, *plan.Scan, *plan.Scan) {
	t.Helper()
	db := storage.NewDB()
	ctx := plan.NewContext()
	if _, err := db.CreateTable("big", types.Schema{{Name: "x", Type: types.TInt}, {Name: "k", Type: types.TInt}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("dim", types.Schema{{Name: "id", Type: types.TInt}, {Name: "name", Type: types.TString}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("side", types.Schema{{Name: "v", Type: types.TInt}}); err != nil {
		t.Fatal(err)
	}
	var big, dim []types.Row
	for i := 0; i < earlyProbeRows; i++ {
		big = append(big, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 55))})
	}
	for _, id := range append(seq(0, 50), seq(100, 110)...) {
		dim = append(dim, types.Row{types.NewInt(int64(id)), types.NewString(fmt.Sprintf("n%d", id))})
	}
	if err := db.InsertRows("big", big); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("dim", dim); err != nil {
		t.Fatal(err)
	}
	mkScan := func(name string) *plan.Scan {
		tbl, _ := db.Table(name)
		s := &plan.Scan{Info: &plan.TableInfo{Name: name, Schema: tbl.Schema()}, Instance: ctx.NewInstance()}
		for ord, col := range tbl.Schema() {
			s.Cols = append(s.Cols, ctx.NewColumn(name+"."+col.Name, col.Type))
			s.Ords = append(s.Ords, ord)
		}
		return s
	}
	return db, ctx, mkScan("big"), mkScan("dim")
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// earlyPlans are the streaming shapes under test, keyed by name.
func earlyPlans(big, dim *plan.Scan) map[string]plan.Node {
	cond := &plan.Bin{Op: "=",
		L:   &plan.ColRef{ID: big.Cols[1], Typ: types.TInt},
		R:   &plan.ColRef{ID: dim.Cols[0], Typ: types.TInt},
		Typ: types.TBool}
	return map[string]plan.Node{
		"scan":                   big,
		"join-build-right-inner": &plan.Join{Kind: plan.InnerJoin, Left: big, Right: dim, Cond: cond},
		"join-build-right-outer": &plan.Join{Kind: plan.LeftOuterJoin, Left: big, Right: dim, Cond: cond},
		"join-build-left-outer":  &plan.Join{Kind: plan.LeftOuterJoin, Left: dim, Right: big, Cond: cond, BuildLeft: true},
	}
}

// waitGoroutines polls until at most n goroutines run (exiting workers
// may still be unwinding right after wg.Wait returns).
func waitGoroutines(n int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExchangeEarlyTermination pulls k rows from each streaming shape
// at a morsel size that yields several morsels (100 batches each) and
// at one that covers the table, then closes. Batches filled are bounded
// by the exchange's read-ahead window — after c consumed chunks, while
// 2^c is below a morsel's chunk count, at most c + workers·2^c chunks
// are produced — plus the (fully built) join build side. Every shape
// yields at least 9 rows per non-empty probe batch, so k rows take at
// most ceil(k/9) chunks.
func TestExchangeEarlyTermination(t *testing.T) {
	db, ctx, big, dim := earlyEnv(t)
	plans := earlyPlans(big, dim)
	for name, n := range plans {
		plan.MarkVectorizable(n)
		sb := NewBuilder(ctx, db, db.CurrentTS())
		sb.SetVectorize(earlyBatch)
		serial, err := sb.Run(n)
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		buildBatches := 0
		if _, ok := n.(*plan.Join); ok {
			buildBatches = 6 // dim: 60 rows
		}
		for _, morsel := range []int{1000, 10000} {
			for _, k := range []int{0, 1, 25} {
				t.Run(fmt.Sprintf("%s/morsel=%d/k=%d", name, morsel, k), func(t *testing.T) {
					met := &Metrics{}
					b := NewBuilder(ctx, db, db.CurrentTS())
					b.SetVectorize(earlyBatch)
					b.SetParallel(earlyWorkers, morsel)
					b.SetMetrics(met)
					goroutines := runtime.NumGoroutine()
					it, err := b.Build(n)
					if err != nil {
						t.Fatal(err)
					}
					if err := it.Open(); err != nil {
						t.Fatal(err)
					}
					var got []types.Row
					for len(got) < k {
						row, ok, err := it.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						got = append(got, row)
					}
					// A commit while the iterator is open advances the
					// clock past its snapshot: the pin holds the
					// watermark back until Close.
					if err := db.InsertRows("side", []types.Row{{types.NewInt(1)}}); err != nil {
						t.Fatal(err)
					}
					if db.WatermarkLag() == 0 {
						t.Error("snapshot not pinned while open")
					}
					it.Close()
					if lag := db.WatermarkLag(); lag != 0 {
						t.Errorf("snapshot pin not released after Close: watermark lag %d", lag)
					}
					if left := waitGoroutines(goroutines); left > goroutines {
						t.Errorf("%d goroutines after Close, %d before Open", left, goroutines)
					}

					if len(got) != k {
						t.Fatalf("pulled %d rows, want %d", len(got), k)
					}
					for i := range got {
						if !rowsIdentical(got[i], serial[i]) {
							t.Fatalf("row %d = %v, serial %v", i, got[i], serial[i])
						}
					}
					c := (k + 8) / 9
					bound := int64(buildBatches + c + earlyWorkers<<c)
					if filled := met.VecBatches.Value(); filled > bound {
						t.Errorf("filled %d batches for %d rows, bound %d (table %d)", filled, k, bound, earlyProbeRows/earlyBatch)
					}
					pipelines := met.ParallelPipelines.Value()
					es, _ := it.(extraStatser)
					var st OpStats
					es.extraStats(&st)
					if morsel >= earlyProbeRows {
						if pipelines != 0 || st.Workers != 0 {
							t.Errorf("single-morsel run reported parallel: pipelines=%d workers=%d", pipelines, st.Workers)
						}
					} else if pipelines != 1 || st.Workers != earlyWorkers {
						t.Errorf("multi-morsel run: pipelines=%d workers=%d, want 1 and %d", pipelines, st.Workers, earlyWorkers)
					}
				})
			}
		}
	}
}

// TestExchangeOuterTail drains the build-left LEFT OUTER join at every
// morsel size: the matched bitmap is applied chunk by chunk, so the
// NULL-extended tail after the probe must equal serial's, row for row.
func TestExchangeOuterTail(t *testing.T) {
	db, ctx, big, dim := earlyEnv(t)
	n := earlyPlans(big, dim)["join-build-left-outer"]
	plan.MarkVectorizable(n)
	sb := NewBuilder(ctx, db, db.CurrentTS())
	sb.SetVectorize(earlyBatch)
	serial, err := sb.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	tail := 0
	for _, r := range serial {
		if r[2].IsNull() {
			tail++
		}
	}
	if tail != 10 {
		t.Fatalf("serial tail has %d NULL-extended rows, want 10", tail)
	}
	for _, morsel := range []int{1, 7, 30, 5000} {
		b := NewBuilder(ctx, db, db.CurrentTS())
		b.SetVectorize(earlyBatch)
		b.SetParallel(earlyWorkers, morsel)
		rows, err := b.Run(n)
		if err != nil {
			t.Fatalf("morsel=%d: %v", morsel, err)
		}
		if len(rows) != len(serial) {
			t.Fatalf("morsel=%d: %d rows, serial %d", morsel, len(rows), len(serial))
		}
		for i := range rows {
			if !rowsIdentical(rows[i], serial[i]) {
				t.Fatalf("morsel=%d: row %d = %v, serial %v", morsel, i, rows[i], serial[i])
			}
		}
	}
}

func rowsIdentical(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() || (!a[i].IsNull() && !types.Equal(a[i], b[i])) {
			return false
		}
	}
	return true
}
