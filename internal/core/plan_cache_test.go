package core

// Plan-cache behavior at the statement layer: hits on repeated statement
// shapes whatever their literals, whitespace or keyword case; accounting
// (one hit or one miss per cacheable statement); invalidation on DDL and
// shard-layout changes — a dropped table is never served from a stale
// instance; EXECUTE as its template's statement; and cached =
// fresh under rebinding, for every operator the planner builds and from
// several clients at once.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"veridb/internal/plan"
)

func openCached(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{Seed: 99, PlanCacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestPlanCacheHitOnShape(t *testing.T) {
	db := openCached(t)
	seed(t, db)

	r1 := exec(t, db, `SELECT id FROM quote WHERE count = 100`)
	s0 := db.PlanCacheStats()
	if s0.Hits != 0 {
		t.Fatalf("first execution hit the cache: %+v", s0)
	}
	// Same shape, different whitespace and keyword case: a hit.
	r2 := exec(t, db, "select  id\n\tfrom quote   where count = 100")
	s1 := db.PlanCacheStats()
	if s1.Hits != s0.Hits+1 {
		t.Fatalf("repeated statement missed the cache: before %+v after %+v", s0, s1)
	}
	if len(r1.Rows) != 2 || fmt.Sprint(r2.Rows) != fmt.Sprint(r1.Rows) {
		t.Fatalf("cached rows %v, fresh rows %v", r2.Rows, r1.Rows)
	}
	// Same shape, another literal: a hit too, on a plan rebound to it — the
	// scan bounds are read from the literal, not embedded.
	r3 := exec(t, db, `SELECT id FROM quote WHERE count = 500`)
	if len(r3.Rows) != 1 || r3.Rows[0][0].I != 3 {
		t.Fatalf("rebound plan returned %v, want the one count=500 row", r3.Rows)
	}
	s2 := db.PlanCacheStats()
	if s2.Hits != s1.Hits+1 || s2.Entries != s1.Entries {
		t.Fatalf("another literal of the shape did not hit: before %+v after %+v", s1, s2)
	}
	// A FLOAT in the INT's place is another shape: literal types are fixed
	// at compile time.
	r4 := exec(t, db, `SELECT id FROM quote WHERE count < 500.5`)
	if s3 := db.PlanCacheStats(); s3.Hits != s2.Hits || s3.Entries != s2.Entries+1 {
		t.Fatalf("FLOAT literal shared the INT literal's shape: before %+v after %+v", s2, s3)
	}
	if len(r4.Rows) != 3 {
		t.Fatalf("FLOAT-literal rows %v, want ids 1, 2 and 3", r4.Rows)
	}
}

// TestPlanCacheAccounting: every statement of a cached kind is exactly one
// hit or one miss, other kinds are neither, and a statement that finds its
// shape's instances all checked out is a miss whose compiled instance
// joins them.
func TestPlanCacheAccounting(t *testing.T) {
	db := openCached(t) // CREATE TABLE ×2, INSERT ×2: two lookups, two shapes
	seed(t, db)
	base := db.PlanCacheStats()
	if base.Hits+base.Misses != 2 {
		t.Fatalf("seeding counted %+v, want the two INSERTs only", base)
	}
	stmts := []string{
		`SELECT id FROM quote WHERE id = 1`,
		`SELECT id FROM quote WHERE id = 2`,
		`UPDATE quote SET price = 1.5 WHERE id = 1`,
		`UPDATE quote SET price = 2.5 WHERE id = 2`,
		`DELETE FROM quote WHERE id = 4`,
		`INSERT INTO quote VALUES (4,600,100.0)`,
		`SELECT id FROM nosuch WHERE id = 1`, // fails to plan: a miss, nothing filed
		`SELECT id FROM nosuch WHERE id = 2`,
	}
	for _, q := range stmts {
		db.Execute(q)
	}
	exec(t, db, `BEGIN SNAPSHOT`)
	exec(t, db, `COMMIT`)
	exec(t, db, `PREPARE p AS SELECT id FROM quote WHERE id = ?`)
	s := db.PlanCacheStats()
	if got := s.Hits + s.Misses - base.Hits - base.Misses; got != uint64(len(stmts)) {
		t.Fatalf("%d lookups counted for %d cacheable statements: %+v", got, len(stmts), s)
	}
	if s.Hits-base.Hits != 2 {
		t.Fatalf("%d hits, want the second SELECT and the second UPDATE: %+v", s.Hits-base.Hits, s)
	}
}

func TestPlanCacheKeepsInstancesPerShape(t *testing.T) {
	c := plan.NewCache(2)
	put := func(key string) { c.Put(key, 1, &plan.Instance{Rebindable: true}) }
	for i := 0; i < 6; i++ {
		put("a")
	}
	n := 0
	for c.Get("a", 1) != nil {
		n++
	}
	if n == 0 || n >= 6 {
		t.Fatalf("%d idle instances kept of 6 filed, want the per-shape cap", n)
	}
	if s := c.Stats(); s.Hits != uint64(n) || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v after %d hits and one miss on one shape", s, n)
	}
	// An instance that serves its own literals only is never filed.
	c.Put("b", 1, &plan.Instance{})
	if c.Get("b", 1) != nil {
		t.Fatal("a non-rebindable instance was filed")
	}
	// The LRU bound counts shapes.
	put("b")
	put("c")
	if s := c.Stats(); s.Entries != 2 {
		t.Fatalf("%d shapes held by a cache of 2", s.Entries)
	}
	if c.Get("a", 1) != nil {
		t.Fatal("least recently used shape survived two newer ones")
	}
}

func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := openCached(t)
	seed(t, db)

	q := `SELECT id FROM quote WHERE count = 100`
	exec(t, db, q)
	exec(t, db, q)
	s0 := db.PlanCacheStats()
	if s0.Hits == 0 {
		t.Fatalf("warm-up did not populate the cache: %+v", s0)
	}

	// CREATE TABLE advances the catalog version: the cached plan is
	// discarded on next access and recompiled.
	exec(t, db, `CREATE TABLE extra (id INT PRIMARY KEY)`)
	res := exec(t, db, q)
	s1 := db.PlanCacheStats()
	if s1.Invalidations != s0.Invalidations+1 {
		t.Fatalf("CREATE TABLE did not invalidate: before %+v after %+v", s0, s1)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("recompiled plan returned %v", res.Rows)
	}
	exec(t, db, q) // the recompile re-populated the entry
	if s2 := db.PlanCacheStats(); s2.Hits != s1.Hits+1 {
		t.Fatalf("entry not re-populated after invalidation: %+v", s2)
	}

	// DROP TABLE: a select cached against the dropped table must error,
	// never serve rows from a stale plan over freed pages.
	qi := `SELECT id FROM inventory`
	exec(t, db, qi)
	exec(t, db, qi)
	exec(t, db, `DROP TABLE inventory`)
	if _, err := db.Execute(qi); err == nil || !strings.Contains(err.Error(), "inventory") {
		t.Fatalf("select on dropped table returned %v, want unknown-table error", err)
	}
}

func TestPlanCacheShardLayoutInvalidation(t *testing.T) {
	db := openCached(t)
	seed(t, db)

	q := `SELECT id FROM quote WHERE count = 100`
	exec(t, db, q)
	exec(t, db, q)
	s0 := db.PlanCacheStats()

	// A shard-layout change advances the catalog version like DDL does:
	// plans compiled against the old layout are discarded.
	db.store.SetDefaultShards(4)
	res := exec(t, db, q)
	s1 := db.PlanCacheStats()
	if s1.Invalidations != s0.Invalidations+1 {
		t.Fatalf("shard-layout change did not invalidate: before %+v after %+v", s0, s1)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("recompiled plan returned %v", res.Rows)
	}
}

// TestPlanCacheExecute: an EXECUTE runs as its template with the
// arguments in place, under that statement's shape — constant argument
// expressions and negative values included — so it shares instances with
// the statement written with literals; after a re-PREPARE the name runs
// the new template (a plain miss on its shape), and DEALLOCATE ends it.
func TestPlanCacheExecute(t *testing.T) {
	db := openCached(t)
	seed(t, db)
	exec(t, db, `PREPARE p AS SELECT id FROM quote WHERE count = ? ORDER BY id`)
	if rows := exec(t, db, `EXECUTE p (100)`).Rows; len(rows) != 2 {
		t.Fatalf("EXECUTE p (100): %v", rows)
	}
	s0 := db.PlanCacheStats()
	for _, tc := range [][2]string{
		{`500`, `[[3]]`},
		{`2 * 300`, `[[4]]`},
		{`- 7`, `[]`},
		{`50 + 50`, `[[1] [2]]`},
		{`5 * 100`, `[[3]]`},
	} {
		if rows := exec(t, db, `EXECUTE p (`+tc[0]+`)`).Rows; fmt.Sprint(rows) != tc[1] {
			t.Fatalf("EXECUTE p (%s): %v, want %s", tc[0], rows, tc[1])
		}
	}
	if s := db.PlanCacheStats(); s.Hits != s0.Hits+5 || s.Misses != s0.Misses {
		t.Fatalf("before %+v after %+v, want every int-valued argument a hit on the template's shape", s0, s)
	}
	s1 := db.PlanCacheStats()
	if rows := exec(t, db, `SELECT id FROM quote WHERE count = 600 ORDER BY id`).Rows; fmt.Sprint(rows) != `[[4]]` {
		t.Fatalf("the template written with a literal: %v", rows)
	}
	if s := db.PlanCacheStats(); s.Hits != s1.Hits+1 {
		t.Fatalf("the template written with a literal missed the EXECUTE's instance: before %+v after %+v", s1, s)
	}

	// The name now means another statement, of another shape.
	exec(t, db, `PREPARE p AS SELECT price FROM quote WHERE id = ?`)
	s2 := db.PlanCacheStats()
	if rows := exec(t, db, `EXECUTE p (2)`).Rows; fmt.Sprint(rows) != `[[200]]` {
		t.Fatalf("EXECUTE after re-PREPARE answered from the old template: %v", rows)
	}
	if s := db.PlanCacheStats(); s.Misses != s2.Misses+1 || s.Hits != s2.Hits || s.Invalidations != s2.Invalidations {
		t.Fatalf("EXECUTE of the new template: before %+v after %+v, want one plain miss", s2, s)
	}
	if rows := exec(t, db, `EXECUTE p (3)`).Rows; fmt.Sprint(rows) != `[[100]]` {
		t.Fatalf("EXECUTE p (3) on the new template: %v", rows)
	}
	exec(t, db, `DEALLOCATE p`)
	if _, err := db.Execute(`EXECUTE p (3)`); err == nil || !strings.Contains(err.Error(), "no prepared statement") {
		t.Fatalf("EXECUTE after DEALLOCATE returned %v", err)
	}
}

// TestPlanCacheConcurrentRebinding: eight clients send one shape over
// disjoint keys at once. Each must get its own row back — an instance is
// never in two hands — and nearly every statement must hit.
func TestPlanCacheConcurrentRebinding(t *testing.T) {
	db := openCached(t)
	exec(t, db, `CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`)
	const clients, perClient = 8, 250
	for k := 0; k < clients*perClient; k++ {
		exec(t, db, fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%d')`, k, k))
	}
	s0 := db.PlanCacheStats()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c * perClient; k < (c+1)*perClient; k++ {
				res, err := db.ExecuteContext(context.Background(), fmt.Sprint("client-", c),
					fmt.Sprintf(`SELECT v FROM kv WHERE k = %d`, k))
				if err != nil {
					t.Errorf("key %d: %v", k, err)
					return
				}
				if want := fmt.Sprintf("value-%d", k); len(res.Rows) != 1 || res.Rows[0][0].S != want {
					t.Errorf("key %d: got %v, want %s", k, res.Rows, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s := db.PlanCacheStats()
	hits, looks := float64(s.Hits-s0.Hits), float64(s.Hits+s.Misses-s0.Hits-s0.Misses)
	if looks != clients*perClient || hits/looks <= 0.9 {
		t.Fatalf("hit ratio %.3f over %v lookups, want > 0.9 over %d: %+v", hits/looks, looks, clients*perClient, s)
	}
	if err := db.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestCachedPlansRebindEveryOperator: under each join strategy — which
// between them put Sort, HashAggregate, HashJoin, MergeJoin, IndexJoin,
// NestedLoopJoin over Materialize, Filter, Project and Limit into plans —
// statements served from rebound cached plans equal the same statements
// compiled fresh, and a plan at rest in the cache pins no budget and no
// snapshot.
func TestCachedPlansRebindEveryOperator(t *testing.T) {
	shapes := []string{
		`SELECT q.id, i.descr FROM quote q JOIN inventory i ON q.id = i.id WHERE q.count >= %d ORDER BY q.id DESC`,
		`SELECT q.id, i.descr FROM quote q, inventory i WHERE q.id = i.id AND i.count < %d`,
		`SELECT count, COUNT(*), SUM(price * %d) FROM quote GROUP BY count ORDER BY count`,
		`SELECT q.count, MAX(i.count + %d) FROM quote q JOIN inventory i ON q.id = i.id GROUP BY q.count ORDER BY q.count`,
		`SELECT id, price FROM quote WHERE id > %d ORDER BY price DESC, id LIMIT 2`,
		`SELECT id + %d, 'x' FROM inventory WHERE descr <> 'desc3'`,
	}
	for _, join := range []plan.JoinStrategy{plan.JoinAuto, plan.JoinIndex, plan.JoinMerge, plan.JoinHash, plan.JoinNested} {
		cached, err := Open(Config{Seed: 99, PlanCacheSize: 32, Join: join})
		if err != nil {
			t.Fatal(err)
		}
		defer cached.Close()
		fresh, err := Open(Config{Seed: 99, Join: join}) // no cache: every statement compiles
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		seed(t, cached)
		seed(t, fresh)
		s0, g0 := cached.PlanCacheStats(), cached.GovernStats()
		for _, shape := range shapes {
			for _, lit := range []int{100, 2, 300, 0} {
				q := fmt.Sprintf(shape, lit)
				got, gerr := cached.Execute(q)
				want, werr := fresh.Execute(q)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("join %d %q: cached error %v, fresh %v", join, q, gerr, werr)
				}
				if gerr == nil && (fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows)) {
					t.Fatalf("join %d %q:\ncached %v %v\nfresh  %v %v", join, q, got.Columns, got.Rows, want.Columns, want.Rows)
				}
				if g := cached.GovernStats(); g.MemUsed != g0.MemUsed || g.SnapshotPins != 0 {
					t.Fatalf("join %d %q: cache at rest holds %d budget bytes and %d snapshot pins", join, q, g.MemUsed-g0.MemUsed, g.SnapshotPins)
				}
			}
		}
		if s := cached.PlanCacheStats(); s.Hits-s0.Hits != uint64(3*len(shapes)) {
			t.Fatalf("join %d: %d hits, want three of every shape's four statements: %+v", join, s.Hits-s0.Hits, s)
		}
		if err := cached.Memory().VerifyAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateAfterCachedNarrowSelect: a SELECT's scans build only the
// columns it reads, and its cached plan keeps that projection; an UPDATE
// of the same table afterwards reads and writes back whole rows.
func TestUpdateAfterCachedNarrowSelect(t *testing.T) {
	db := openCached(t)
	seed(t, db)
	for i := 0; i < 2; i++ { // compile, then hit
		if r := exec(t, db, `SELECT count FROM quote WHERE id > 2`); fmt.Sprint(r.Rows) != "[[500] [600]]" {
			t.Fatalf("narrow select: %v", r.Rows)
		}
	}
	before := db.PlanCacheStats()
	if r := exec(t, db, `UPDATE quote SET count = count + 1 WHERE id > 2`); r.Affected != 2 {
		t.Fatalf("UPDATE affected %d rows, want 2", r.Affected)
	}
	if r := exec(t, db, `SELECT count FROM quote WHERE id > 2`); fmt.Sprint(r.Rows) != "[[501] [601]]" {
		t.Fatalf("cached narrow select after UPDATE: %v", r.Rows)
	}
	if after := db.PlanCacheStats(); after.Hits != before.Hits+1 {
		t.Fatalf("narrow select missed the cache after UPDATE: before %+v after %+v", before, after)
	}
	r := exec(t, db, `SELECT * FROM quote`)
	if got := fmt.Sprint(r.Rows); got != "[[1 100 100] [2 100 200] [3 501 100] [4 601 100]]" {
		t.Fatalf("UPDATE did not write back whole rows: %v", got)
	}
	if err := db.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestCountStarOverProjectedScans: COUNT(*) reads no column, so its scan
// emits zero-width rows — which must still be counted, on one shard and
// through the sharded merge, fresh and from the plan cache.
func TestCountStarOverProjectedScans(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := Open(Config{Seed: 99, PlanCacheSize: 32, TableShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(db.Close)
			exec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, grp INT, note TEXT, INDEX(grp))`)
			var b strings.Builder
			b.WriteString("INSERT INTO t VALUES ")
			for i := 1; i <= 60; i++ {
				if i > 1 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "(%d, %d, 'n%d')", i, i%4, i)
			}
			exec(t, db, b.String())
			for _, tc := range []struct {
				query string
				want  int64
			}{
				{`SELECT COUNT(*) FROM t`, 60},
				{`SELECT COUNT(*) FROM t`, 60},
				{`SELECT COUNT(*) FROM t WHERE id > 45`, 15},
				{`SELECT COUNT(*) FROM t WHERE grp = 1`, 15},
				{`SELECT COUNT(*) FROM t WHERE grp = 2`, 15},
			} {
				r := exec(t, db, tc.query)
				if len(r.Rows) != 1 || r.Rows[0][0].I != tc.want {
					t.Fatalf("%s: %v, want %d", tc.query, r.Rows, tc.want)
				}
			}
			if err := db.Memory().VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
