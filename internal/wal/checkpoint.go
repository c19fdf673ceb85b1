package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"vdm/internal/types"
)

// CheckpointFile is the checkpoint's filename inside the WAL directory.
// It is replaced atomically (write tmp, fsync, rename), so the
// directory always holds at most one complete checkpoint; a leftover
// checkpointTmpFile from a crashed write is ignored and overwritten.
const (
	CheckpointFile    = "checkpoint.ck"
	checkpointTmpFile = "checkpoint.tmp"
)

// ckptMagic heads the checkpoint file; the body is one CRC32C frame so
// a torn checkpoint write is detected the same way a torn record is.
var ckptMagic = [8]byte{'V', 'D', 'M', 'C', 'K', 'P', 'T', '1'}

// CheckpointTable is one table's serialized state at the checkpoint
// timestamp: schema, constraints, and every row visible at TS.
type CheckpointTable struct {
	Name   string
	Schema types.Schema
	Keys   []KeyDef
	FKs    []FKDef
	Rows   [][]types.Value
}

// CheckpointData is a full-store snapshot at commit timestamp TS.
// Recovery restores it and then replays WAL segments whose base
// timestamp is >= TS.
type CheckpointData struct {
	TS     uint64
	Tables []CheckpointTable
}

// encodeCheckpoint renders the checkpoint payload in memory; it writes
// the same bytes a CheckpointWriter streams.
func encodeCheckpoint(ck *CheckpointData) []byte {
	b := appendCheckpointHead(nil, ck.TS, len(ck.Tables))
	for i := range ck.Tables {
		t := &ck.Tables[i]
		b = appendTableHead(b, t, len(t.Rows))
		for _, row := range t.Rows {
			b = appendUvarint(b, uint64(len(row)))
			for _, v := range row {
				b = AppendValue(b, v)
			}
		}
	}
	return b
}

// appendCheckpointHead appends the payload prefix: checkpoint timestamp
// and table count.
func appendCheckpointHead(b []byte, ts uint64, nTables int) []byte {
	b = appendUvarint(b, ts)
	return appendUvarint(b, uint64(nTables))
}

// appendTableHead appends one table's name, schema, constraints and row
// count; its nRows rows follow it, each as a value count and values.
func appendTableHead(b []byte, t *CheckpointTable, nRows int) []byte {
	b = appendString(b, t.Name)
	b = appendUvarint(b, uint64(len(t.Schema)))
	for _, c := range t.Schema {
		b = appendString(b, c.Name)
		b = append(b, byte(c.Type))
		if c.NotNull {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = appendUvarint(b, uint64(len(t.Keys)))
	for _, k := range t.Keys {
		b = appendKeyDef(b, k)
	}
	b = appendUvarint(b, uint64(len(t.FKs)))
	for _, fk := range t.FKs {
		b = appendString(b, fk.Name)
		b = appendString(b, fk.RefTable)
		b = appendUvarint(b, uint64(len(fk.Columns)))
		for _, c := range fk.Columns {
			b = appendUvarint(b, uint64(c))
		}
	}
	return appendUvarint(b, uint64(nRows))
}

// decodeCheckpoint parses a checkpoint payload; like DecodeRecord it
// never panics on corrupt bytes.
func decodeCheckpoint(payload []byte) (*CheckpointData, error) {
	d := &decoder{b: payload}
	ck := &CheckpointData{TS: d.uvarint()}
	nTables := d.count()
	for i := 0; i < nTables && d.err == nil; i++ {
		t := CheckpointTable{Name: d.string()}
		nCols := d.count()
		if nCols > maxColumns {
			d.fail("schema width %d out of range", nCols)
			break
		}
		for j := 0; j < nCols && d.err == nil; j++ {
			name := d.string()
			typ := types.Type(d.byte())
			nn := d.byte()
			if nn > 1 {
				d.fail("bad notnull byte %d", nn)
				break
			}
			t.Schema = append(t.Schema, types.Column{Name: name, Type: typ, NotNull: nn == 1})
		}
		nKeys := d.count()
		for j := 0; j < nKeys && d.err == nil; j++ {
			t.Keys = append(t.Keys, d.keyDef())
		}
		nFKs := d.count()
		for j := 0; j < nFKs && d.err == nil; j++ {
			fk := FKDef{Name: d.string(), RefTable: d.string()}
			fk.Columns = d.ordinals()
			t.FKs = append(t.FKs, fk)
		}
		nRows := d.count()
		for j := 0; j < nRows && d.err == nil; j++ {
			nVals := d.count()
			row := make([]types.Value, 0, nVals)
			for k := 0; k < nVals && d.err == nil; k++ {
				row = append(row, d.value())
			}
			t.Rows = append(t.Rows, row)
		}
		ck.Tables = append(ck.Tables, t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wal: %d trailing bytes after checkpoint", len(d.b)-d.off)
	}
	return ck, nil
}

// WriteCheckpoint atomically replaces the directory's checkpoint with
// an in-memory CheckpointData, through a CheckpointWriter.
func WriteCheckpoint(dir string, ck *CheckpointData) error {
	w, err := CreateCheckpoint(dir, ck.TS, len(ck.Tables))
	if err != nil {
		return err
	}
	for i := range ck.Tables {
		t := &ck.Tables[i]
		w.BeginTable(t, len(t.Rows))
		for _, row := range t.Rows {
			w.BeginRow(len(row))
			for _, v := range row {
				w.Value(v)
			}
		}
	}
	return w.Commit()
}

// CheckpointWriter streams a checkpoint straight to a temp file, so
// serializing a large store never holds more than one flush worth of
// encoded bytes in memory. The file is the magic, one frame header and
// the payload; the header's length and CRC32C are patched in by Commit
// once the payload is complete. The caller emits, in order, each
// table's head (BeginTable) followed by exactly the announced number of
// rows (BeginRow plus that many Values), and calls Flush every so
// often to bound the buffer; Commit writes the rest.
type CheckpointWriter struct {
	dir string
	f   *os.File
	buf []byte // encoded payload bytes not yet written to f
	crc uint32 // CRC32C of the payload bytes already written
	n   int    // payload bytes already written
	err error  // first write error; Commit reports it
}

// CreateCheckpoint opens a checkpoint at commit timestamp ts holding
// nTables tables.
func CreateCheckpoint(dir string, ts uint64, nTables int) (*CheckpointWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, checkpointTmpFile), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint: %v", ErrWALFailed, err)
	}
	// The frame header stays zero until Commit patches it.
	head := make([]byte, len(ckptMagic)+frameHeaderLen)
	copy(head, ckptMagic[:])
	w := &CheckpointWriter{dir: dir, f: f}
	if _, err := f.Write(head); err != nil {
		w.err = err
	}
	w.buf = appendCheckpointHead(w.buf, ts, nTables)
	return w, nil
}

// BeginTable emits a table's head; t.Rows is ignored, nRows rows must
// follow.
func (w *CheckpointWriter) BeginTable(t *CheckpointTable, nRows int) {
	w.buf = appendTableHead(w.buf, t, nRows)
}

// BeginRow starts a row of width values.
func (w *CheckpointWriter) BeginRow(width int) {
	w.buf = appendUvarint(w.buf, uint64(width))
}

// Value emits one value of the current row.
func (w *CheckpointWriter) Value(v types.Value) {
	w.buf = AppendValue(w.buf, v)
}

// Flush writes the buffered payload bytes to the file.
func (w *CheckpointWriter) Flush() {
	if len(w.buf) == 0 {
		return
	}
	if w.err == nil {
		if _, err := w.f.Write(w.buf); err != nil {
			w.err = err
		}
	}
	w.crc = crc32.Update(w.crc, castagnoli, w.buf)
	w.n += len(w.buf)
	w.buf = w.buf[:0]
}

// Commit completes the frame header, fsyncs the file and renames it
// over CheckpointFile, so a crash at any point leaves either the old or
// the new checkpoint fully intact. On error the temp file is removed.
func (w *CheckpointWriter) Commit() error {
	w.Flush()
	tmp := filepath.Join(w.dir, checkpointTmpFile)
	err := w.err
	if err == nil && w.n > maxPayload {
		err = fmt.Errorf("payload of %d bytes exceeds the %d-byte frame limit", w.n, maxPayload)
	}
	if err == nil {
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.n))
		binary.LittleEndian.PutUint32(hdr[4:8], w.crc)
		_, err = w.f.WriteAt(hdr[:], int64(len(ckptMagic)))
	}
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(w.dir, CheckpointFile))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("%w: checkpoint: %v", ErrWALFailed, err)
	}
	syncDir(w.dir)
	return nil
}

// ReadCheckpoint loads the directory's checkpoint. It returns (nil,
// nil) when no checkpoint exists (a fresh or pre-checkpoint store); a
// present-but-corrupt checkpoint is an error, because silently ignoring
// it would replay the WAL against an empty store and resurrect a wrong
// state.
func ReadCheckpoint(dir string) (*CheckpointData, error) {
	buf, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: checkpoint: %v", ErrWALFailed, err)
	}
	if len(buf) < len(ckptMagic) || !bytes.Equal(buf[:len(ckptMagic)], ckptMagic[:]) {
		return nil, fmt.Errorf("%w: checkpoint: bad magic", ErrWALFailed)
	}
	payload, next, ok := ReadFrame(buf, len(ckptMagic))
	if !ok || next != len(buf) {
		return nil, fmt.Errorf("%w: checkpoint: corrupt frame", ErrWALFailed)
	}
	ck, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint: %v", ErrWALFailed, err)
	}
	return ck, nil
}
