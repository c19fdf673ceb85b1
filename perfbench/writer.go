package main

import (
	"errors"
	"fmt"
	"math/rand"

	"vdm/internal/decimal"
	"vdm/internal/storage"
	"vdm/internal/types"
)

// writerKind is one of the four writer transactions of the htapbench
// harness, which this writer mirrors.
type writerKind uint8

const (
	wInsert   writerKind = iota // new active document, ledger += amount
	wDraft                      // new draft document, ledger untouched
	wActivate                   // draft -> active, ledger += amount
	wDelete                     // delete an active document, ledger -= amount
)

var writerKindNames = [...]string{"insert", "draft", "activate", "delete"}

func (k writerKind) String() string { return writerKindNames[k] }

// writerCycle is the writer's mix, one transaction per entry: insert 2,
// draft 2, activate 2, delete 4. Over one cycle the active table gains
// 2 (insert) + 2 (activate) and loses 4 (delete), and the draft table
// gains 2 and loses 2, so live row counts return to where they started
// after every cycle. That keeps the readers' scan cost from drifting
// with how many transactions the writer managed, which would otherwise
// turn writer speed into reader latency noise. The order within a cycle
// is shuffled from the seed.
var writerCycle = [...]writerKind{wInsert, wInsert, wDraft, wDraft, wActivate, wActivate, wDelete, wDelete, wDelete, wDelete}

// firstWriterID is above every preloaded document id, so new documents
// never collide with the fixture (htapbench preloads ids 1..scale plus
// a 5% draft backlog above that).
const firstWriterID = int64(1_000_000_000)

// writer is one closed-loop OLTP session on the htapbench fixture. It
// owns ledger account 1 and every document, so its transactions never
// conflict and any conservation violation is an engine bug.
type writer struct {
	db                          *storage.DB
	active, draft, ledger       *storage.Table
	activePK, draftPK, ledgerPK int

	rng    *rand.Rand
	nextID int64
	// activeIDs and draftIDs are the live documents; the writer picks
	// activate and delete targets from them uniformly.
	activeIDs, draftIDs []int64
	cycle               []writerKind
	// trace, when set, receives one span per transaction with the body
	// and the commit as children.
	trace *sessionTrace
	txnID int64
}

var errNoTarget = errors.New("writer: no live document to act on")

func newWriter(db *storage.DB, scale int, seed int64) (*writer, error) {
	w := &writer{db: db, rng: rand.New(rand.NewSource(seed ^ 0x57a1e)), nextID: firstWriterID}
	for _, t := range []struct {
		name string
		tbl  **storage.Table
		pk   *int
	}{{"hb_active", &w.active, &w.activePK}, {"hb_draft", &w.draft, &w.draftPK}, {"hb_ledger", &w.ledger, &w.ledgerPK}} {
		tbl, ok := db.Table(t.name)
		if !ok {
			return nil, fmt.Errorf("writer: fixture table %s missing", t.name)
		}
		*t.tbl = tbl
		if *t.pk = tbl.PrimaryKeyIndex(); *t.pk < 0 {
			return nil, fmt.Errorf("writer: fixture table %s has no primary key", t.name)
		}
	}
	for id := int64(1); id <= int64(scale); id++ {
		w.activeIDs = append(w.activeIDs, id)
	}
	for id := int64(scale + 1); id <= int64(scale+scale/20); id++ {
		w.draftIDs = append(w.draftIDs, id)
	}
	return w, nil
}

// next returns the next transaction kind of the shuffled cycle.
func (w *writer) next() writerKind {
	if len(w.cycle) == 0 {
		w.cycle = append(w.cycle, writerCycle[:]...)
		w.rng.Shuffle(len(w.cycle), func(i, j int) { w.cycle[i], w.cycle[j] = w.cycle[j], w.cycle[i] })
	}
	k := w.cycle[0]
	w.cycle = w.cycle[1:]
	return k
}

// do runs one transaction of kind k, Begin to Commit, and updates the
// writer's document inventory only once the commit succeeded.
func (w *writer) do(k writerKind) error {
	w.txnID++
	root := w.trace.begin(spTxn, -1, w.txnID, uint8(k))
	defer w.trace.end(root)
	body := w.trace.begin(spTxnBody, root, w.txnID, uint8(k))
	tx := w.db.Begin()
	apply, err := w.body(tx, k)
	w.trace.end(body)
	if err != nil {
		tx.Rollback()
		return err
	}
	commit := w.trace.begin(spCommit, root, w.txnID, uint8(k))
	err = tx.Commit()
	w.trace.end(commit)
	if err != nil {
		return err
	}
	apply()
	return nil
}

// body performs the transaction's reads and writes and returns the
// inventory change to apply once it commits.
func (w *writer) body(tx *storage.Txn, k writerKind) (func(), error) {
	switch k {
	case wInsert, wDraft:
		id := w.nextID + 1
		row, amount := w.newDoc(id)
		tbl := w.active
		if k == wDraft {
			tbl = w.draft
		}
		if err := tx.Insert(tbl, row); err != nil {
			return nil, err
		}
		if k == wInsert {
			if err := w.adjustLedger(tx, amount); err != nil {
				return nil, err
			}
		}
		return func() {
			w.nextID = id
			if k == wInsert {
				w.activeIDs = append(w.activeIDs, id)
			} else {
				w.draftIDs = append(w.draftIDs, id)
			}
		}, nil
	case wActivate:
		i, id, err := w.pick(w.draftIDs)
		if err != nil {
			return nil, err
		}
		row, err := w.remove(tx, w.draft, w.draftPK, id)
		if err != nil {
			return nil, err
		}
		// The activated document carries the draft's full contents.
		if err := tx.Insert(w.active, row); err != nil {
			return nil, err
		}
		if err := w.adjustLedger(tx, row[3].Decimal()); err != nil {
			return nil, err
		}
		return func() {
			w.draftIDs = removeAt(w.draftIDs, i)
			w.activeIDs = append(w.activeIDs, id)
		}, nil
	case wDelete:
		i, id, err := w.pick(w.activeIDs)
		if err != nil {
			return nil, err
		}
		row, err := w.remove(tx, w.active, w.activePK, id)
		if err != nil {
			return nil, err
		}
		if err := w.adjustLedger(tx, row[3].Decimal().Neg()); err != nil {
			return nil, err
		}
		return func() { w.activeIDs = removeAt(w.activeIDs, i) }, nil
	}
	return nil, fmt.Errorf("writer: unknown transaction kind %d", k)
}

func (w *writer) pick(ids []int64) (int, int64, error) {
	if len(ids) == 0 {
		return 0, 0, errNoTarget
	}
	i := w.rng.Intn(len(ids))
	return i, ids[i], nil
}

func removeAt(ids []int64, i int) []int64 {
	ids[i] = ids[len(ids)-1]
	return ids[:len(ids)-1]
}

// remove deletes the document with primary key id from tbl inside tx
// and returns the deleted row.
func (w *writer) remove(tx *storage.Txn, tbl *storage.Table, pk int, id int64) (types.Row, error) {
	snap := tx.Snapshot(tbl)
	pos, ok := snap.LookupUnique(pk, types.Row{types.NewInt(id)})
	if !ok {
		return nil, fmt.Errorf("writer: %s id %d not found", tbl.Name(), id)
	}
	row := snap.Row(pos)
	if err := tx.DeleteAt(snap, pos); err != nil {
		return nil, err
	}
	return row, nil
}

// adjustLedger moves account 1's balance by delta through a unique-key
// point lookup and an in-place update: the OLTP read-modify-write.
func (w *writer) adjustLedger(tx *storage.Txn, delta decimal.Decimal) error {
	snap := tx.Snapshot(w.ledger)
	pos, ok := snap.LookupUnique(w.ledgerPK, types.Row{types.NewInt(1)})
	if !ok {
		return errors.New("writer: ledger account 1 not found")
	}
	row := snap.Row(pos)
	bal := row[1].Decimal().Add(delta)
	return tx.UpdateAt(snap, pos, types.Row{row[0], types.NewDecimal(bal)})
}

var (
	docTypes   = []string{"INV", "PAY", "CRN", "DBN"}
	currencies = []string{"EUR", "USD", "GBP", "JPY", "CHF"}
)

// newDoc builds a document row in the fixture's column order (id,
// doc_type, account, amount, qty, currency, note).
func (w *writer) newDoc(id int64) (types.Row, decimal.Decimal) {
	amount := decimal.New(100+w.rng.Int63n(999_900), 2)
	return types.Row{
		types.NewInt(id),
		types.NewString(docTypes[w.rng.Intn(len(docTypes))]),
		types.NewInt(1),
		types.NewDecimal(amount),
		types.NewInt(1 + w.rng.Int63n(100)),
		types.NewString(currencies[w.rng.Intn(len(currencies))]),
		types.NewString(fmt.Sprintf("doc %d", id)),
	}, amount
}
