package veridb

import (
	"errors"
	"fmt"
	"testing"

	"veridb/internal/client"
)

// execBatchSetup loads a deterministic two-table dataset: 200 items across
// 10 categories plus the category dimension table. internal/core's
// TestExecCapacityEndorsementGoldens serves the same data and queries at
// every batch capacity.
func execBatchSetup(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE items (id INT PRIMARY KEY, cat INT, qty INT, price FLOAT, name TEXT)`)
	mustExec(t, db, `CREATE TABLE cats (cat INT PRIMARY KEY, label TEXT)`)
	for c := 0; c < 10; c++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO cats VALUES (%d, 'cat-%d')`, c, c))
	}
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO items VALUES (%d, %d, %d, %g, 'item-%03d')`,
			i, i%10, i%13, float64(i)*0.5, i))
	}
}

// execBatchQueries is the endorsed workload: scans, filters, expression
// projections, aggregates, joins, sorts, limits, and two failing queries —
// error responses are sequenced and MACed like results.
var execBatchQueries = []string{
	`SELECT id, cat, qty, price, name FROM items`,
	`SELECT id, name FROM items WHERE qty > 6 AND price < 70.0`,
	`SELECT id, qty * 2 + cat FROM items WHERE id >= 20 AND id < 180 ORDER BY id DESC`,
	`SELECT cat, COUNT(*), SUM(qty), AVG(price), MIN(id), MAX(id) FROM items GROUP BY cat ORDER BY cat`,
	`SELECT i.id, c.label FROM items i JOIN cats c ON i.cat = c.cat WHERE i.qty = 3 ORDER BY i.id`,
	`SELECT id, price FROM items ORDER BY price DESC LIMIT 7`,
	`SELECT COUNT(*) FROM items WHERE name <> 'item-007'`,
	`SELECT id / (id - id) FROM items`, // division by zero mid-scan
	`SELECT * FROM missing`,            // plan-time failure
}

// serveAll runs the workload through the authenticated portal with a fresh
// client (so the qid sequence is identical across databases) and returns
// every endorsed response in order.
func serveAll(t *testing.T, db *DB, key []byte) []*Response {
	t.Helper()
	db.ProvisionClient("alice", key)
	c := NewClient("alice", key)
	out := make([]*Response, 0, len(execBatchQueries))
	for _, q := range execBatchQueries {
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
		out = append(out, resp)
	}
	return out
}
