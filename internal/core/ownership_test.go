package core

import (
	"fmt"
	"sync"
	"testing"

	"veridb/internal/plan"
)

// TestRetainedRowsSurviveScanRefill drives the operators that keep scanned
// rows past the batch that delivered them — Sort, HashAggregate (its group
// keys), the hash join's build side, LIMIT's output — at capacities 1 and
// 256, on 1 and 4 shards, while a writer keeps retiring versions of the
// scanned keys. The scanner reuses one record-image buffer from row to row
// and reads shared history images for rows the writer has since changed;
// a kept row that aliased either would come back with another row's bytes.
// Every row is checked against itself: txt and grp are functions of id and
// ver.
func TestRetainedRowsSurviveScanRefill(t *testing.T) {
	const rows = 700
	txt := func(id, ver int64) string { return fmt.Sprintf("row-%d-v%d", id, ver) }
	grp := func(id int64) string { return fmt.Sprintf("group-%02d", id%7) }
	for _, shards := range []int{1, 4} {
		for _, capacity := range []int{1, 256} {
			t.Run(fmt.Sprintf("shards=%d/cap=%d", shards, capacity), func(t *testing.T) {
				db, err := Open(Config{Seed: 5, TableShards: shards, ExecBatchSize: capacity, Join: plan.JoinHash})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				exec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, ver INT, txt TEXT, grp TEXT)`)
				exec(t, db, `CREATE TABLE g (name TEXT PRIMARY KEY, label TEXT)`)
				for id := int64(0); id < rows; id++ {
					exec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 0, '%s', '%s')`, id, txt(id, 0), grp(id)))
				}
				for id := int64(0); id < 7; id++ {
					exec(t, db, fmt.Sprintf(`INSERT INTO g VALUES ('%s', 'label-of-%s')`, grp(id), grp(id)))
				}

				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ver := int64(1); ; ver++ {
						for id := int64(0); id < rows; id++ {
							select {
							case <-stop:
								return
							default:
							}
							q := fmt.Sprintf(`UPDATE t SET ver = %d, txt = '%s' WHERE id = %d`, ver, txt(id, ver), id)
							if _, err := db.Execute(q); err != nil {
								t.Errorf("%s: %v", q, err)
								return
							}
						}
					}
				}()

				for round := 0; round < 3; round++ {
					// Sort keeps every row until the scan is drained and closed.
					res := exec(t, db, `SELECT id, ver, txt, grp FROM t ORDER BY txt DESC`)
					if len(res.Rows) != rows {
						t.Fatalf("sort: %d rows, want %d", len(res.Rows), rows)
					}
					for _, r := range res.Rows {
						if r[2].S != txt(r[0].I, r[1].I) || r[3].S != grp(r[0].I) {
							t.Fatalf("sort: row does not agree with itself: %v", r)
						}
					}
					// LIMIT hands up rows from the first batches and closes the scan early.
					res = exec(t, db, `SELECT id, ver, txt FROM t LIMIT 300`)
					if len(res.Rows) != 300 {
						t.Fatalf("limit: %d rows, want 300", len(res.Rows))
					}
					for _, r := range res.Rows {
						if r[2].S != txt(r[0].I, r[1].I) {
							t.Fatalf("limit: row does not agree with itself: %v", r)
						}
					}
					// HashAggregate keeps each group's key from the first row it saw.
					res = exec(t, db, `SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp`)
					if len(res.Rows) != 7 {
						t.Fatalf("aggregate: %d groups, want 7: %v", len(res.Rows), res.Rows)
					}
					for i, r := range res.Rows {
						if r[0].S != grp(int64(i)) || r[1].I != rows/7 {
							t.Fatalf("aggregate: group %d is %v", i, r)
						}
					}
					// The hash join builds on one input and keeps it while it probes with the other.
					res = exec(t, db, `SELECT t.id, t.grp, g.label FROM t, g WHERE t.grp = g.name`)
					if len(res.Rows) != rows {
						t.Fatalf("join: %d rows, want %d", len(res.Rows), rows)
					}
					for _, r := range res.Rows {
						if r[1].S != grp(r[0].I) || r[2].S != "label-of-"+r[1].S {
							t.Fatalf("join: row does not agree with itself: %v", r)
						}
					}
				}
				close(stop)
				wg.Wait()
				if err := db.Memory().VerifyAll(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
