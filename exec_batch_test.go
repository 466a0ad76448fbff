package veridb

import (
	"fmt"
	"testing"
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
