package exec

import (
	"vdm/internal/types"
)

// Vectorized hash join: both inputs are batch pipelines, the build side
// is swept batch-at-a-time into a hash table keyed on typed values
// (int64 for integer-tagged keys, the raw string for dictionary keys,
// Value.AppendKey bytes otherwise), and the probe side streams batches
// through the table. Emission order, NULL-key handling, LEFT OUTER
// extension, and build-side metering replicate hashJoinIter (build
// right, probe left) and hashJoinBuildLeftIter (build left, probe
// right) exactly, so results are row- and order-identical to the row
// executor — serial and parallel.

// Join key strategies. The typed fast paths are byte-parity with
// Value.AppendKey: TInt/TDate/TBool share the integer key tag encoding
// the raw payload (so an int column joins a date column exactly as the
// row path does), and a single string key's encoding is injective in
// the string. Everything else — decimals (which normalize), float/int
// mixes (which never match, as their tags differ), multi-column keys —
// goes through the actual AppendKey bytes.
const (
	jkInt   uint8 = iota // single key, both sides integer-tagged
	jkStr                // single key, both sides strings
	jkBytes              // AppendKey-encoded key bytes
)

type vecHashJoinIter struct {
	build, probe *vecSpec
	// buildLeft: the hash side is the plan's left input (the optimizer's
	// BuildLeft choice); otherwise the conventional build-right layout.
	buildLeft bool
	leftOuter bool
	// key positions within the decoded build/probe rows.
	buildKeyPos, probeKeyPos []int
	keyKind                  uint8
	rightWidth               int // NULL-extension width for outer rows
	// proj, when non-nil, projects the logical left++right output row
	// down to the given combined positions during emission (a fused
	// parent Project of bare column refs); nil emits the full row.
	proj       []int
	batchSize  int
	workers    int // >1 probes morsels on a worker pool
	morselSize int
	met        *Metrics
	gov        *Governance
	acct       memAcct

	buildRows []types.Row
	intTable  map[int64][]int32
	strTable  map[string][]int32
	matched   []bool // buildLeft && leftOuter

	// probe stream: the probe pipeline's joined batches arrive through
	// an exchange (inline when serial or within one morsel).
	x       *exchange
	unpin   func()
	cur     []types.Row
	pos     int
	drained bool
	tail    prober // NULL-extends the unmatched build rows
	tailPos int
}

func (j *vecHashJoinIter) Open() error {
	j.acct = memAcct{gov: j.gov}
	if err := j.gov.point(PointHashBuild); err != nil {
		return err
	}
	if j.met != nil {
		j.met.VecPipelines.Inc()
	}
	if err := j.buildTable(); err != nil {
		return err
	}
	if j.buildLeft && j.leftOuter {
		j.matched = make([]bool, len(j.buildRows))
	}
	j.unpin = j.probe.snap.Pin()
	total := j.probe.snap.NumRowVersions()
	j.x = startExchange(total, j.morselSize, j.batchSize, j.workers, j.gov, j.probeCursor)
	j.met.countParallel(j.x.morsels)
	j.cur, j.pos, j.drained = nil, 0, false
	j.tail, j.tailPos = prober{j: j}, 0
	return nil
}

// buildTable sweeps the build pipeline's batches, materializes the rows
// in scan order, meters them against the query budget (every build row,
// NULL keys included — exactly what the row joins' drain loops meter),
// and indexes the non-NULL keys.
func (j *vecHashJoinIter) buildTable() error {
	unpin := j.build.snap.Pin()
	defer unpin()
	sc := newVecScratch(j.build)
	total := j.build.snap.NumRowVersions()
	for pos := 0; pos < total; pos += j.batchSize {
		if err := j.build.fill(pos, pos+j.batchSize, sc); err != nil {
			return err
		}
		j.buildRows = j.build.decodeRows(sc, j.buildRows)
	}
	switch j.keyKind {
	case jkInt:
		j.intTable = make(map[int64][]int32, len(j.buildRows))
	default:
		j.strTable = make(map[string][]int32, len(j.buildRows))
	}
	var keyBuf []byte
	for idx, row := range j.buildRows {
		if err := j.acct.add(rowBytes(row)); err != nil {
			return err
		}
		switch j.keyKind {
		case jkInt:
			v := row[j.buildKeyPos[0]]
			if v.IsNull() {
				continue // NULL keys never match
			}
			k := v.Int()
			j.intTable[k] = append(j.intTable[k], int32(idx))
		case jkStr:
			v := row[j.buildKeyPos[0]]
			if v.IsNull() {
				continue
			}
			k := v.Str()
			j.strTable[k] = append(j.strTable[k], int32(idx))
		default:
			key, null := appendKeyAt(keyBuf[:0], row, j.buildKeyPos)
			keyBuf = key
			if null {
				continue
			}
			j.strTable[string(key)] = append(j.strTable[string(key)], int32(idx))
		}
	}
	return nil
}

// appendKeyAt encodes the key values at the given row positions onto
// buf; null is true when any key value is NULL (the row never matches,
// mirroring appendEvalKey).
func appendKeyAt(buf []byte, row types.Row, pos []int) ([]byte, bool) {
	for _, p := range pos {
		v := row[p]
		if v.IsNull() {
			return buf, true
		}
		buf = v.AppendKey(buf)
	}
	return buf, false
}

// prober is the per-goroutine probe state: the key scratch and the
// output row arena. The build table it reads is immutable after Open,
// so any number of probers share one join.
type prober struct {
	j      *vecHashJoinIter
	keyBuf []byte
	arena  rowArena
}

// lookup returns the build-row indexes matching the probe row's key, in
// build insertion order (= build scan order, like the row joins).
func (p *prober) lookup(row types.Row) []int32 {
	j := p.j
	switch j.keyKind {
	case jkInt:
		v := row[j.probeKeyPos[0]]
		if v.IsNull() {
			return nil
		}
		return j.intTable[v.Int()]
	case jkStr:
		v := row[j.probeKeyPos[0]]
		if v.IsNull() {
			return nil
		}
		return j.strTable[v.Str()]
	default:
		key, null := appendKeyAt(p.keyBuf[:0], row, j.probeKeyPos)
		p.keyBuf = key
		if null {
			return nil
		}
		return j.strTable[string(key)]
	}
}

// rowArena chunk-allocates output row backing so a joined batch costs a
// handful of allocations instead of one per row. Rows handed out are
// immutable after emission, so retaining the chunk is safe.
type rowArena struct{ buf []types.Value }

// arenaChunkRows sizes arena chunks in output rows.
const arenaChunkRows = 256

func (a *rowArena) take(n int) types.Row {
	if len(a.buf) < n {
		a.buf = make([]types.Value, arenaChunkRows*n)
	}
	r := types.Row(a.buf[:n:n])
	a.buf = a.buf[n:]
	return r
}

// outRow assembles one output row from the logical left and right
// halves, applying the fused projection when present. right == nil
// NULL-extends to rightWidth (the row joins' outer-row shape).
func (p *prober) outRow(left, right types.Row) types.Row {
	j := p.j
	if j.proj == nil {
		out := p.arena.take(len(left) + j.rightWidth)
		copy(out, left)
		if right != nil {
			copy(out[len(left):], right)
		} else {
			for i := len(left); i < len(out); i++ {
				out[i] = types.NewNull(types.TNull)
			}
		}
		return out
	}
	out := p.arena.take(len(j.proj))
	for i, pos := range j.proj {
		switch {
		case pos < len(left):
			out[i] = left[pos]
		case right != nil:
			out[i] = right[pos-len(left)]
		default:
			out[i] = types.NewNull(types.TNull)
		}
	}
	return out
}

// emit appends the join output for one probe row to c. The emitted
// shapes replicate the row joins: build-right emits probe++build
// (NULL-extending unmatched probes under LEFT OUTER); build-left emits
// build++probe for matches only and records them in c.matched, leaving
// unmatched build rows for the tail sweep. Both orders are the plan's
// left++right, since the build side is whichever input the optimizer
// chose to materialize.
func (p *prober) emit(row types.Row, matches []int32, c *chunk) {
	j := p.j
	if j.buildLeft {
		for _, bi := range matches {
			c.rows = append(c.rows, p.outRow(j.buildRows[bi], row))
		}
		if j.leftOuter {
			c.matched = append(c.matched, matches...)
		}
		return
	}
	for _, bi := range matches {
		c.rows = append(c.rows, p.outRow(row, j.buildRows[bi]))
	}
	if len(matches) == 0 && j.leftOuter {
		c.rows = append(c.rows, p.outRow(row, nil))
	}
}

// probeCursor joins probe positions [lo, hi) one probe batch at a time,
// skipping batches that join to nothing. Probe output is not metered,
// matching the row joins' streaming probes.
func (j *vecHashJoinIter) probeCursor(lo, hi int) cursor {
	p := &prober{j: j}
	pos := lo
	var sc *vecScratch
	var in []types.Row
	return func(dst []types.Row) (chunk, bool, error) {
		if sc == nil {
			sc = newVecScratch(j.probe)
		}
		for pos < hi {
			end := min(pos+j.batchSize, hi)
			if err := j.probe.fill(pos, end, sc); err != nil {
				return chunk{}, false, err
			}
			pos = end
			in = j.probe.decodeRows(sc, in[:0])
			c := chunk{rows: dst[:0]}
			for _, row := range in {
				p.emit(row, p.lookup(row), &c)
			}
			if len(c.rows) > 0 {
				return c, true, nil
			}
		}
		return chunk{}, false, nil
	}
}

func (j *vecHashJoinIter) Next() (types.Row, bool, error) {
	for j.pos >= len(j.cur) {
		if j.drained {
			return j.tailRow()
		}
		c, ok, err := j.x.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.drained = true
			continue
		}
		// Matches are applied as chunks are consumed, in probe order, so
		// the bitmap is complete when the stream drains.
		for _, bi := range c.matched {
			j.matched[bi] = true
		}
		j.cur, j.pos = c.rows, 0
	}
	row := j.cur[j.pos]
	j.pos++
	return row, true, nil
}

// tailRow emits the next unmatched build row, NULL-extended, in build
// order (build-left LEFT OUTER only; nothing otherwise).
func (j *vecHashJoinIter) tailRow() (types.Row, bool, error) {
	for j.matched != nil && j.tailPos < len(j.buildRows) {
		bi := j.tailPos
		j.tailPos++
		if !j.matched[bi] {
			return j.tail.outRow(j.buildRows[bi], nil), true, nil
		}
	}
	return nil, false, nil
}

func (j *vecHashJoinIter) Close() {
	if j.x != nil {
		j.x.close()
	}
	if j.unpin != nil {
		j.unpin()
		j.unpin = nil
	}
	j.acct.close()
	j.buildRows = nil
	j.intTable = nil
	j.strTable = nil
	j.cur = nil
}

// buildStats mirrors the row joins: build-left counts every
// materialized build row; build-right counts only table-indexed rows
// (NULL keys excluded), like hashJoinIter.
func (j *vecHashJoinIter) buildStats() (int64, int64) {
	if j.buildLeft {
		return rowSetBytes(j.buildRows)
	}
	var n, bytes int64
	count := func(idxs []int32) {
		for _, bi := range idxs {
			n++
			bytes += rowBytes(j.buildRows[bi])
		}
	}
	if j.intTable != nil {
		for _, idxs := range j.intTable {
			count(idxs)
		}
	} else {
		for _, idxs := range j.strTable {
			count(idxs)
		}
	}
	return n, bytes
}

func (j *vecHashJoinIter) memBytes() int64 { return j.acct.bytes() }

func (j *vecHashJoinIter) extraStats(st *OpStats) {
	if j.x != nil && j.x.started > 0 {
		st.Workers = int64(j.x.started)
		st.Morsels = int64(j.x.morsels)
	}
}
