package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vdm/internal/decimal"
	"vdm/internal/types"
	"vdm/internal/wal"
)

// Tests for the streaming checkpoint: it encodes the pinned snapshot's
// visible rows straight into the checkpoint file, and must write the
// very bytes the materializing encoder it replaced wrote.

// legacyCheckpointFile is the materializing checkpoint encoder that
// Checkpoint used before it streamed: every visible row of every table
// is built as a types.Row, and the whole payload is encoded into one
// buffer before framing. It is kept here only as the byte-identity
// reference.
func legacyCheckpointFile(db *DB, ts uint64) []byte {
	str := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	flag := func(b []byte, on bool) []byte {
		if on {
			return append(b, 1)
		}
		return append(b, 0)
	}
	ords := func(b []byte, cols []int) []byte {
		b = binary.AppendUvarint(b, uint64(len(cols)))
		for _, c := range cols {
			b = binary.AppendUvarint(b, uint64(c))
		}
		return b
	}
	names := db.TableNames()
	b := binary.AppendUvarint(nil, ts)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		t, _ := db.Table(name)
		snap := t.SnapshotAt(ts)
		var rows []types.Row
		for _, r := range snap.Rows() {
			rows = append(rows, snap.Row(r))
		}
		b = str(b, t.Name())
		b = binary.AppendUvarint(b, uint64(len(t.Schema())))
		for _, c := range t.Schema() {
			b = str(b, c.Name)
			b = append(b, byte(c.Type))
			b = flag(b, c.NotNull)
		}
		b = binary.AppendUvarint(b, uint64(len(t.Keys())))
		for _, k := range t.Keys() {
			b = str(b, k.Name)
			b = flag(b, k.Primary)
			b = ords(b, k.Columns)
		}
		b = binary.AppendUvarint(b, uint64(len(t.ForeignKeys())))
		for _, fk := range t.ForeignKeys() {
			b = str(b, fk.Name)
			b = str(b, fk.RefTable)
			b = ords(b, fk.Columns)
		}
		b = binary.AppendUvarint(b, uint64(len(rows)))
		for _, row := range rows {
			b = binary.AppendUvarint(b, uint64(len(row)))
			for _, v := range row {
				b = wal.AppendValue(b, v)
			}
		}
	}
	return wal.AppendFrame([]byte("VDMCKPT1"), b)
}

// allTypesDB opens a durable DB holding two tables: "every" with one
// column of each type (NULLs in every nullable column, a primary key, a
// foreign key) carrying dead versions from deletes and updates on both
// sides of a merge, and a small "aux" table.
func allTypesDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, _, err := OpenDB(dir, wal.Config{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	every, err := db.CreateTable("every", types.Schema{
		{Name: "id", Type: types.TInt, NotNull: true},
		{Name: "f", Type: types.TFloat},
		{Name: "b", Type: types.TBool},
		{Name: "s", Type: types.TString},
		{Name: "d", Type: types.TDecimal},
		{Name: "dt", Type: types.TDate},
		{Name: "i", Type: types.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := every.AddKey(KeyConstraint{Name: "every_pk", Columns: []int{0}, Primary: true}); err != nil {
		t.Fatal(err)
	}
	if err := every.AddForeignKey(ForeignKey{Name: "every_aux", Columns: []int{6}, RefTable: "aux"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("aux", types.Schema{{Name: "k", Type: types.TInt, NotNull: true}}); err != nil {
		t.Fatal(err)
	}
	row := func(i int64) types.Row {
		r := types.Row{
			types.NewInt(i),
			types.NewFloat(float64(i) / 3),
			types.NewBool(i%2 == 0),
			types.NewString(fmt.Sprintf("s%d", i%13)),
			types.NewDecimal(decimal.Decimal{Coef: i*7 - 300, Scale: int32(i % 3)}),
			types.NewDate(19000 + i),
			types.NewInt(-i),
		}
		if i%5 == 0 {
			r[1+int(i/5)%6] = types.NewNull(every.Schema()[1+int(i/5)%6].Type)
		}
		return r
	}
	batch := func(lo, hi int64) {
		var rows []types.Row
		for i := lo; i < hi; i++ {
			rows = append(rows, row(i))
		}
		if err := db.InsertRows("every", rows); err != nil {
			t.Fatal(err)
		}
	}
	batch(0, 3000)
	if err := every.MergeDelta(); err != nil {
		t.Fatal(err)
	}
	batch(3000, 3500)
	// Dead versions: deletes and updates across main and delta.
	snap := every.SnapshotAt(db.CurrentTS())
	tx := db.Begin()
	for _, r := range snap.Rows() {
		id := snap.Row(r)[0].Int()
		switch {
		case id%7 == 0:
			if err := tx.DeleteAt(snap, r); err != nil {
				t.Fatal(err)
			}
		case id%11 == 0:
			if err := tx.UpdateAt(snap, r, row(id+100000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("aux", []types.Row{{types.NewInt(1)}, {types.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCheckpointStreamingByteIdentical: the streamed checkpoint file is
// byte-identical to the materializing encoder's output for the same
// snapshot.
func TestCheckpointStreamingByteIdentical(t *testing.T) {
	dir := t.TempDir()
	db := allTypesDB(t, dir)
	defer db.CloseWAL()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, wal.CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	want := legacyCheckpointFile(db, db.CurrentTS())
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed checkpoint (%d bytes) differs from the materializing encoder (%d bytes)", len(got), len(want))
	}
}

// TestCheckpointStreamingRestoreRoundTrip: a streamed checkpoint
// restores to the same visible rows, constraints and clock.
func TestCheckpointStreamingRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := allTypesDB(t, dir)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantEvery, wantAux, wantTS := liveRows(t, db, "every"), liveRows(t, db, "aux"), db.CurrentTS()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2, info, err := OpenDB(dir, wal.Config{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.CloseWAL()
	if info.CheckpointTS != wantTS || info.Records != 0 || db2.CurrentTS() != wantTS {
		t.Fatalf("recovery: checkpoint ts %d, %d records, clock %d; want ts %d from the checkpoint alone",
			info.CheckpointTS, info.Records, db2.CurrentTS(), wantTS)
	}
	if got := liveRows(t, db2, "every"); !equalStrings(got, wantEvery) {
		t.Fatalf("every: %d rows restored, want %d", len(got), len(wantEvery))
	}
	if got := liveRows(t, db2, "aux"); !equalStrings(got, wantAux) {
		t.Fatalf("aux rows %v, want %v", got, wantAux)
	}
	every, _ := db2.Table("every")
	if k, fk := every.Keys(), every.ForeignKeys(); len(k) != 1 || !k[0].Primary || len(fk) != 1 || fk[0].RefTable != "aux" {
		t.Fatalf("constraints not restored: keys %+v fks %+v", k, fk)
	}
}

// TestCheckpointStreamingAllocBound: checkpointing a 10^5-row,
// 7-column table allocates less than 4x the checkpoint file's size.
// Materializing the table as rows of boxed values cost about 24x.
func TestCheckpointStreamingAllocBound(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDB(dir, wal.Config{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	if _, err := db.CreateTable("wide", types.Schema{
		{Name: "a", Type: types.TInt}, {Name: "b", Type: types.TString},
		{Name: "c", Type: types.TFloat}, {Name: "d", Type: types.TDecimal},
		{Name: "e", Type: types.TDate}, {Name: "f", Type: types.TBool},
		{Name: "g", Type: types.TInt},
	}); err != nil {
		t.Fatal(err)
	}
	const n = 100000
	rows := make([]types.Row, 0, n)
	for i := int64(0); i < n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(i), types.NewString(fmt.Sprintf("doc-%d", i%5000)),
			types.NewFloat(float64(i) * 1.5), types.NewDecimal(decimal.Decimal{Coef: i * 101, Scale: 2}),
			types.NewDate(18000 + i%3000), types.NewBool(i%3 == 0), types.NewInt(i % 977),
		})
	}
	if err := db.InsertRows("wide", rows); err != nil {
		t.Fatal(err)
	}
	rows = nil
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(filepath.Join(dir, wal.CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := 4 * uint64(fi.Size()); alloc >= limit {
		t.Fatalf("checkpoint allocated %d bytes for a %d-byte file (%.1fx), want < 4x",
			alloc, fi.Size(), float64(alloc)/float64(fi.Size()))
	}
	t.Logf("checkpoint allocated %d bytes for a %d-byte file (%.2fx)", alloc, fi.Size(), float64(alloc)/float64(fi.Size()))
}
