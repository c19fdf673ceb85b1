package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Spans of the traced run. Each is recorded by the benchmark around
// one call into a layer's public functions; nothing inside the engine
// is instrumented. A span's parent is the span that caused it (a
// transaction for its body and commit, a statement for its parse,
// bind, optimize, lease and run), and op ties the spans of one
// transaction or statement together.
type spanName uint8

const (
	spTxn        spanName = iota // writer: Begin .. Commit return
	spTxnBody                    // storage: lookups, inserts, deletes, updates before Commit
	spCommit                     // storage: Txn.Commit (lock wait, WAL append, apply)
	spStmt                       // reader: one statement, end to end
	spParse                      // sql: sql.ParseQuery
	spBind                       // bind: Binder.BindQuery
	spOptimize                   // core: Optimizer.Optimize
	spLease                      // storage: DB.AcquireRead
	spRun                        // exec: Engine.Run of the planned statement
	spQuery                      // engine: QueryContext (plan cache on; parse, plan lookup and run)
	spMerge                      // storage: Table.MergeDelta
	spVacuum                     // storage: DB.Vacuum
	spCheckpoint                 // storage/wal: DB.Checkpoint
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"txn", "storage.txn_body", "storage.commit",
	"stmt", "sql.parse", "bind.bind", "core.optimize", "storage.lease", "exec.run", "engine.query",
	"storage.merge", "storage.vacuum", "storage.checkpoint",
}

type span struct {
	name       spanName
	class      uint8 // writer kind or reader shape
	parent     int32 // index in the same session's spans, -1 for a root
	op         int64 // transaction or statement id within the session
	start, end int64 // ns since the run's trace epoch
}

// sessionTrace collects one goroutine's spans; sessions never share
// one, so recording takes no lock. A nil *sessionTrace records nothing,
// which is how the untraced run pays almost no cost for the calls.
type sessionTrace struct {
	session string
	epoch   time.Time
	spans   []span
}

func newSessionTrace(session string, epoch time.Time) *sessionTrace {
	return &sessionTrace{session: session, epoch: epoch}
}

func (t *sessionTrace) begin(name spanName, parent int, op int64, class uint8) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, class: class, parent: int32(parent), op: op,
		start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *sessionTrace) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// duration returns span i's length.
func (t *sessionTrace) duration(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	s := t.spans[i]
	return time.Duration(s.end - s.start)
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the part its children cover. A session's children run
// one after another inside their parent, so the covered part is the sum
// of the children's durations.
func selfTimes(traces []*sessionTrace) [numSpanNames]time.Duration {
	var out [numSpanNames]time.Duration
	for _, t := range traces {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			out[s.name] += time.Duration(s.end - s.start - child[i])
		}
	}
	return out
}

// writeSpans writes every span as one CSV line: session, span id,
// parent id (-1 for roots), name, class, op id, start ns, end ns.
func writeSpans(path string, traces []*sessionTrace, className func(spanName, uint8) string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "session,span,parent,name,class,op,start_ns,end_ns")
	for _, t := range traces {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%s,%d,%d,%s,%s,%d,%d,%d\n", t.session, i, s.parent, spanNames[s.name],
				className(s.name, s.class), s.op, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
