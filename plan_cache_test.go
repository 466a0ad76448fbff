package veridb

// Cached-vs-fresh endorsement identity: serving a workload from the plan
// cache must be invisible to the client's endorsement checks — same
// columns, same rows in the same order, same error text, and therefore the
// same response digests and MACs as a database compiling every statement
// fresh. A cached instance is rebound to each statement's literals, so
// every shape is served three times with different ones: anything a plan
// copied out of its first statement — a scan bound, a header, the text in
// an error — shows as a diverging response.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"veridb/internal/client"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/workload/tpch"
)

// rebindShape is one statement shape with three bindings of its literals.
// misses is how many of the three a warmed cache is expected not to serve.
type rebindShape struct {
	format string
	args   [3][]any
	misses int
}

func (s rebindShape) text(binding int) string { return fmt.Sprintf(s.format, s.args[binding]...) }

// rebindShapes: the exec-batch workload's shapes (the queries internal/core's
// TestExecCapacityEndorsementGoldens serves over the same data), the five
// wire_scan_analytic shapes, and one shape per way a literal can reach a
// plan.
var rebindShapes = []rebindShape{
	// The exec-batch workload, literals varied.
	{format: `SELECT id, cat, qty, price, name FROM items`},
	{format: `SELECT id, name FROM items WHERE qty > %d AND price < %.1f`, args: [3][]any{{6, 70.0}, {2, 12.5}, {11, 99.0}}},
	{format: `SELECT id, qty * %d + cat FROM items WHERE id >= %d AND id < %d ORDER BY id DESC`, args: [3][]any{{2, 20, 180}, {3, 0, 5}, {1, 190, 400}}},
	{format: `SELECT cat, COUNT(*), SUM(qty), AVG(price), MIN(id), MAX(id) FROM items WHERE id < %d GROUP BY cat ORDER BY cat`, args: [3][]any{{200}, {17}, {0}}},
	{format: `SELECT i.id, c.label FROM items i JOIN cats c ON i.cat = c.cat WHERE i.qty = %d ORDER BY i.id`, args: [3][]any{{3}, {12}, {99}}},
	{format: `SELECT id, price FROM items WHERE id > %d ORDER BY price DESC LIMIT 7`, args: [3][]any{{0}, {150}, {197}}},
	{format: `SELECT COUNT(*) FROM items WHERE name <> '%s'`, args: [3][]any{{"item-007"}, {"it''s"}, {""}}},
	{format: `SELECT id / (id - %d) FROM items`, args: [3][]any{{5}, {300}, {199}}},           // division by zero mid-scan, or not
	{format: `SELECT * FROM missing WHERE id = %d`, args: [3][]any{{1}, {2}, {3}}, misses: 3}, // plan-time failure: nothing to file
	// Literals in the select list: an unnamed item's header quotes them.
	{format: `SELECT id + %d, '%s', %.2f FROM items WHERE id < %d`, args: [3][]any{{1, "x", 0.5, 3}, {1000, "it''s", 2.25, 2}, {0, "", 0.0, 4}}},
	// Error text that quotes a literal.
	{format: `SELECT id FROM items WHERE id + %d`, args: [3][]any{{7}, {8}, {9}}},
	// Two same-side bounds: the tighter is first, then second, then either.
	{format: `SELECT id FROM items WHERE id >= %d AND id >= %d AND id <= %d AND id <= %d`, args: [3][]any{{150, 10, 160, 190}, {10, 150, 190, 160}, {5, 5, 8, 8}}},
	{format: `SELECT id FROM items WHERE %d < id AND id < %d`, args: [3][]any{{190, 195}, {0, 3}, {50, 40}}},
	// Negative numbers are a minus sign and a literal.
	{format: `SELECT id, -%d FROM items WHERE id - 100 > -%d AND price < %.1f`, args: [3][]any{{1, 98, 2.0}, {7, 100, 1.0}, {0, 0, 60.0}}},
	{format: `SELECT id FROM items WHERE id IN (%d, %d, %d) ORDER BY id`, args: [3][]any{{1, 2, 3}, {199, 0, 199}, {500, 600, 700}}},
	{format: `SELECT id FROM items WHERE id BETWEEN %d AND %d`, args: [3][]any{{10, 12}, {198, 500}, {30, 20}}},
	{format: `SELECT COUNT(*) FROM items WHERE id NOT BETWEEN %d AND %d`, args: [3][]any{{10, 12}, {0, 199}, {30, 20}}},
	// INT and FLOAT literals in one position are two shapes.
	{format: `SELECT id FROM items WHERE price < %d`, args: [3][]any{{2}, {1}, {50}}},
	{format: `SELECT id FROM items WHERE price < %.1f`, args: [3][]any{{2.0}, {0.5}, {50.5}}},
	// What the planner decides from a literal's value is never filed:
	// GROUP BY keys and merged aggregate calls are matched by source form.
	{format: `SELECT id %% %d, COUNT(*) FROM items GROUP BY id %% %d ORDER BY id %% %d`, args: [3][]any{{3, 3, 3}, {7, 7, 7}, {2, 2, 2}}, misses: 3},
	{format: `SELECT SUM(qty * %d), SUM(qty * %d) FROM items`, args: [3][]any{{2, 2}, {2, 3}, {3, 3}}, misses: 2},
	// DML hits reuse the AST.
	{format: `UPDATE items SET qty = %d, name = '%s' WHERE id = %d`, args: [3][]any{{40, "a", 1}, {41, "b''c", 2}, {42, "", 1}}},
	{format: `INSERT INTO cats VALUES (%d, '%s')`, args: [3][]any{{10, "cat-10"}, {11, "cat-11"}, {10, "dup"}}}, // the third is a key violation
	{format: `DELETE FROM cats WHERE cat >= %d`, args: [3][]any{{11}, {10}, {10}}},
	{format: `SELECT id, qty, name FROM items WHERE id <= %d`, args: [3][]any{{2}, {1}, {0}}},
	// EXECUTE: the arguments are the literals, constant expressions too.
	{format: `EXECUTE sel (%d, '%s')`, args: [3][]any{{5, "item-007"}, {199, "nope"}, {0, "item-000"}}},
	{format: `EXECUTE sel (%d * %d, '%s')`, args: [3][]any{{5, 2, "x"}, {0, 0, "item-001"}, {14, 14, "item-196"}}},
	{format: `EXECUTE upd (%d, %d)`, args: [3][]any{{77, 3}, {78, 4}, {79, 3}}},
	{format: `SELECT id, qty FROM items WHERE id BETWEEN %d AND %d`, args: [3][]any{{3, 4}, {3, 3}, {4, 4}}},
	// The five wire_scan_analytic shapes.
	{format: `SELECT COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_id BETWEEN %d AND %d`, args: scanRanges},
	{format: `SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_id BETWEEN %d AND %d AND l_discount >= 0.05 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, args: scanRanges},
	{format: `SELECT l_id, l_extendedprice FROM lineitem WHERE l_id BETWEEN %d AND %d ORDER BY l_extendedprice DESC LIMIT 100`, args: scanRanges},
	{format: `SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_id BETWEEN %d AND %d AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`, args: scanRanges},
	{format: `SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem, part WHERE p_partkey = l_partkey AND l_id BETWEEN %d AND %d AND l_quantity <= 25 AND p_size <= 25`, args: scanRanges},
}

var scanRanges = [3][]any{{1, 300}, {200, 399}, {350, 400}}

// execAs runs q in client's session, as the portal runs that client's
// requests, but consumes no portal sequence number.
func execAs(t *testing.T, db *DB, client, q string) error {
	t.Helper()
	_, err := db.inner.ExecuteSession(client, q)
	return err
}

// rebindSetup is execBatchSetup plus a small lineitem/part pair and, in
// alice's session (a PREPARE registry is one client's), the prepared
// statements the EXECUTE shapes name.
func rebindSetup(t *testing.T, db *DB) {
	t.Helper()
	execBatchSetup(t, db)
	for _, ddl := range tpch.CreateTablesSQL() {
		mustExec(t, db, ddl)
	}
	d := tpch.Generate(400, 40, 7)
	insert := func(table string, row record.Tuple) {
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = sql.FormatValue(v)
		}
		mustExec(t, db, "INSERT INTO "+table+" VALUES ("+strings.Join(vals, ",")+")")
	}
	for _, l := range d.Lineitems {
		insert("lineitem", tpch.LineitemTuple(l))
	}
	for _, p := range d.Parts {
		insert("part", tpch.PartTuple(p))
	}
	for _, q := range []string{
		`PREPARE sel AS SELECT id, name, id + 1 FROM items WHERE id >= ? AND name <> ? ORDER BY id LIMIT 3`,
		`PREPARE upd AS UPDATE items SET qty = ? WHERE id = ?`,
	} {
		if err := execAs(t, db, "alice", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// serve runs one statement through the authenticated portal and verifies
// the endorsement as a client would.
func serve(t *testing.T, db *DB, c *Client, q string) *Response {
	t.Helper()
	req := c.NewRequest(q)
	resp, err := db.Serve(req)
	if err != nil {
		t.Fatalf("Serve(%q): %v", q, err)
	}
	// A ServerError is an authenticated execution failure: the MAC and
	// sequence checks passed and the client surfaces the portal's error
	// text. Anything else (bad MAC, rollback) fails the test.
	var srvErr *client.ServerError
	if err := c.VerifyResponse(req, resp); err != nil && !errors.As(err, &srvErr) {
		t.Fatalf("VerifyResponse(%q): %v", q, err)
	}
	return resp
}

func TestPlanCacheEndorsementIdentity(t *testing.T) {
	key := []byte("plan-cache-property-key")

	// cold compiles every statement it serves: a DDL before each one moves
	// the catalog version on and with it every shape out of the cache.
	cold := open(t, Config{Seed: 7})
	rebindSetup(t, cold)
	cold.ProvisionClient("alice", key)
	coldClient := NewClient("alice", key)
	coldLoaded := cold.PlanCache()

	// warm has one instance of every shape, compiled for a fourth binding
	// outside the portal (execAs consumes no portal sequence number), so all
	// three served statements of a shape rebind that one instance.
	warm := open(t, Config{Seed: 7})
	rebindSetup(t, warm)
	warm.ProvisionClient("alice", key)
	warmClient := NewClient("alice", key)

	served := 0
	for si, shape := range rebindShapes {
		misses := 0
		for b := 0; b < 3; b++ {
			q := shape.text(b)
			mustExec(t, cold, fmt.Sprintf(`CREATE TABLE bump_%d_%d (id INT PRIMARY KEY)`, si, b))
			if b == 0 {
				warmShape(t, warm, shape)
			}
			s0, coldOps, warmOps := warm.PlanCache(), cold.Stats().Ops, warm.Stats().Ops
			w, got := serve(t, cold, coldClient, q), serve(t, warm, warmClient, q)
			s1 := warm.PlanCache()
			// The cache changes what is compiled, never what is read: a
			// rebound plan scans the range a fresh one would.
			if c, f := warm.Stats().Ops-warmOps, cold.Stats().Ops-coldOps; c != f {
				t.Fatalf("%q: %d protected operations, fresh %d", q, c, f)
			}
			served++
			misses += int(s1.Misses - s0.Misses)
			if s1.Hits+s1.Misses != s0.Hits+s0.Misses+1 {
				t.Fatalf("%q: %d cache lookups for one statement", q, s1.Hits+s1.Misses-s0.Hits-s0.Misses)
			}
			if got.QID != w.QID || got.Seq != w.Seq {
				t.Fatalf("%q: qid/seq (%d,%d), fresh (%d,%d)", q, got.QID, got.Seq, w.QID, w.Seq)
			}
			if got.ErrMsg != w.ErrMsg {
				t.Fatalf("%q: error %q, fresh %q", q, got.ErrMsg, w.ErrMsg)
			}
			if fmt.Sprint(got.Columns) != fmt.Sprint(w.Columns) {
				t.Fatalf("%q: columns %v, fresh %v", q, got.Columns, w.Columns)
			}
			if got.Affected != w.Affected || len(got.Rows) != len(w.Rows) {
				t.Fatalf("%q: %d rows %d affected, fresh %d rows %d affected", q, len(got.Rows), got.Affected, len(w.Rows), w.Affected)
			}
			for r := range got.Rows {
				if fmt.Sprint(got.Rows[r]) != fmt.Sprint(w.Rows[r]) {
					t.Fatalf("%q row %d: %v, fresh %v", q, r, got.Rows[r], w.Rows[r])
				}
			}
			if !bytes.Equal(portal.ResponseDigest(got), portal.ResponseDigest(w)) {
				t.Fatalf("%q: response digest diverged between cached and fresh execution", q)
			}
			if !bytes.Equal(got.MAC, w.MAC) {
				t.Fatalf("%q: response MAC diverged between cached and fresh execution", q)
			}
		}
		if misses != shape.misses {
			t.Fatalf("%q: %d of its three statements missed the warmed cache, want %d", shape.format, misses, shape.misses)
		}
	}
	if s := cold.PlanCache(); s.Hits != coldLoaded.Hits {
		t.Fatalf("the cold instance served %d statements from its cache: %+v", s.Hits-coldLoaded.Hits, s)
	}
	if err := warm.Verify(); err != nil {
		t.Fatalf("verification after cached workload: %v", err)
	}
	if err := cold.Verify(); err != nil {
		t.Fatalf("verification after fresh workload: %v", err)
	}
	t.Logf("%d statements of %d shapes served", served, len(rebindShapes))
}

// warmShape files one instance of the shape in db's cache without changing
// db: the statement runs in alice's session with literals that match no
// row (a write) or as its first binding (a read; errors included — a
// statement that fails while running is filed like any other).
func warmShape(t *testing.T, db *DB, shape rebindShape) {
	t.Helper()
	q := shape.text(0)
	switch {
	case strings.HasPrefix(q, "UPDATE"):
		q = `UPDATE items SET qty = 0, name = 'w' WHERE id = 100000`
	case strings.HasPrefix(q, "INSERT"):
		// Insert and delete a row of the shape; the DELETE is its own
		// shape, warmed again below when its turn comes.
		mustExec(t, db, `INSERT INTO cats VALUES (100000, 'w')`)
		q = `DELETE FROM cats WHERE cat >= 100000`
	case strings.HasPrefix(q, "DELETE"):
		q = `DELETE FROM cats WHERE cat >= 100000`
	case strings.HasPrefix(q, "EXECUTE upd"):
		q = `EXECUTE upd (0, 100000)`
	}
	_ = execAs(t, db, "alice", q)
}
