package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"vdm/internal/engine"
	"vdm/internal/types"
)

// checker holds the run's correctness checks. A violation fails the
// run: the benchmark exits non-zero and reports correct=false.
type checker struct {
	mu         sync.Mutex
	checked    map[string]int64
	violations []string
	// first maps a vdm statement text to the digest of its first
	// result; the tables behind vdm never change, so every repeat must
	// return the same rows in the same order.
	first map[string]string
}

func newChecker() *checker {
	return &checker{checked: map[string]int64{}, first: map[string]string{}}
}

func (c *checker) violate(kind, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, kind+": "+fmt.Sprintf(format, args...))
}

func (c *checker) count(kind string) {
	c.mu.Lock()
	c.checked[kind]++
	c.mu.Unlock()
}

// result applies the check that belongs to the statement's shape.
func (c *checker) result(s shape, text string, res *engine.Result) {
	switch s {
	case shConserve:
		c.count("conservation")
		if msg := checkConserve(res); msg != "" {
			c.violate("conservation", "%s", msg)
		}
	case shPage:
		c.count("page-order")
		if msg := checkPage(res); msg != "" {
			c.violate("page-order", "%s: %s", text, msg)
		}
	case shJeibCount, shJeibPage, shExtPage:
		c.count("repeat")
		d := digest(res)
		c.mu.Lock()
		prev, seen := c.first[text]
		if !seen {
			c.first[text] = d
		}
		c.mu.Unlock()
		if seen && prev != d {
			c.violate("repeat", "%s: %s, first run gave %s", text, d, prev)
		}
	}
}

// checkConserve verifies the conservation query: active-document
// amounts minus the ledger balance sum to zero on every snapshot,
// because each writer transaction moves both in one commit.
func checkConserve(res *engine.Result) string {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return fmt.Sprintf("want one value, got %d rows", len(res.Rows))
	}
	v := res.Rows[0][0]
	if v.IsNull() || !v.Decimal().IsZero() {
		return fmt.Sprintf("active amounts minus ledger balance = %v, want 0", v)
	}
	return ""
}

// checkPage verifies a page: at most pageSize rows, ordered by
// (amount desc, bid, id). Columns are bid, id, doc_type, amount,
// currency_name.
func checkPage(res *engine.Result) string {
	if len(res.Rows) > pageSize {
		return fmt.Sprintf("page has %d rows, limit %d", len(res.Rows), pageSize)
	}
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		for _, k := range []struct {
			col  int
			desc bool
		}{{3, true}, {0, false}, {1, false}} {
			c, err := types.Compare(a[k.col], b[k.col])
			if err != nil {
				return err.Error()
			}
			if k.desc {
				c = -c
			}
			if c < 0 {
				break
			}
			if c > 0 {
				return fmt.Sprintf("rows %d and %d out of (amount desc, bid, id) order: %v before %v", i-1, i, a, b)
			}
		}
	}
	return ""
}

// digest fingerprints a result's rows in order.
func digest(res *engine.Result) string {
	h := fnv.New64a()
	var buf []byte
	for _, row := range res.Rows {
		buf = types.AppendRowKey(buf[:0], row)
		h.Write(buf)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("rows=%d fnv=%016x", len(res.Rows), h.Sum64())
}

// sameRows reports whether two results hold the same multiset of rows;
// the extension views have no ORDER BY, so row order is not part of
// their contract.
func sameRows(a, b *engine.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	keys := func(r *engine.Result) []string {
		out := make([]string, len(r.Rows))
		for i, row := range r.Rows {
			out[i] = string(types.AppendRowKey(nil, row))
		}
		sort.Strings(out)
		return out
	}
	ka, kb := keys(a), keys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// checkCaseJoin compares, for every extension view, the CASE JOIN
// variant's full result with the plain-join variant's. Both declare the
// same extension, so they must agree row for row.
func checkCaseJoin(e *engine.Engine, user string, c *checker) error {
	for v := 0; v < extViews; v++ {
		plain, err := e.QueryAs(user, fmt.Sprintf("select * from C_Document%03dX", v))
		if err != nil {
			return err
		}
		caseJoin, err := e.QueryAs(user, fmt.Sprintf("select * from C_Document%03dXC", v))
		if err != nil {
			return err
		}
		c.count("case-join")
		if !sameRows(plain, caseJoin) {
			c.violate("case-join", "C_Document%03dXC (%d rows) differs from C_Document%03dX (%d rows)",
				v, len(caseJoin.Rows), v, len(plain.Rows))
		}
	}
	return nil
}
