package veridb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func open(t *testing.T, cfg Config) *DB {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func mustExec(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

func TestQuickstartFlow(t *testing.T) {
	db := open(t, Config{})
	mustExec(t, db, `CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance FLOAT)`)
	mustExec(t, db, `INSERT INTO accounts VALUES (1,'alice',100.0),(2,'bob',250.5)`)
	res := mustExec(t, db, `SELECT owner, balance FROM accounts WHERE id = 2`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "bob" || res.Rows[0][1].F != 250.5 {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Columns[0] != "owner" {
		t.Fatalf("columns %v", res.Columns)
	}
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if n, err := db.RowCount("accounts"); err != nil || n != 2 {
		t.Fatalf("RowCount = %d, %v", n, err)
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "accounts" {
		t.Fatalf("TableNames %v", got)
	}
}

func TestTamperDetectionEndToEnd(t *testing.T) {
	db := open(t, Config{})
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY, b TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d-payload')`, i, i))
	}
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := db.InjectTamper("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.Verify(); err == nil {
		t.Fatal("tampering not detected")
	}
	if db.Alarm() == nil {
		t.Fatal("alarm not sticky")
	}
	if db.Stats().Alarms == 0 {
		t.Fatal("alarm counter zero")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative partitions", Config{RSWSPartitions: -2}, "RSWSPartitions"},
		{"negative shards", Config{TableShards: -3}, "TableShards"},
		{"negative verify interval", Config{VerifyEveryOps: -10}, "VerifyEveryOps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Open(c.cfg)
			if err == nil {
				t.Fatalf("Open accepted %+v", c.cfg)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the bad field %s", err, c.want)
			}
		})
	}
}

func TestShardedSQLEndToEnd(t *testing.T) {
	// The same SQL workload must produce identical answers whether tables
	// are sharded or not; sharding is purely a storage-layout knob.
	run := func(t *testing.T, shards int) ([]Row, []Row) {
		db := open(t, Config{TableShards: shards})
		mustExec(t, db, `CREATE TABLE orders (id INT PRIMARY KEY, qty INT, INDEX (qty))`)
		for i := 0; i < 200; i++ {
			mustExec(t, db, fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d)`, (i*29)%500, i%10))
		}
		mustExec(t, db, `DELETE FROM orders WHERE qty = 3`)
		mustExec(t, db, `UPDATE orders SET qty = 99 WHERE qty = 5`)
		all := mustExec(t, db, `SELECT id, qty FROM orders ORDER BY id`)
		rng := mustExec(t, db, `SELECT id FROM orders WHERE qty >= 4 AND qty <= 9 ORDER BY id`)
		if err := db.Verify(); err != nil {
			t.Fatal(err)
		}
		return all.Rows, rng.Rows
	}
	baseAll, baseRng := run(t, 1)
	if len(baseAll) == 0 || len(baseRng) == 0 {
		t.Fatal("baseline workload produced no rows")
	}
	for _, shards := range []int{4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			all, rng := run(t, shards)
			if fmt.Sprint(all) != fmt.Sprint(baseAll) {
				t.Fatalf("full query disagrees at %d shards:\n got %v\nwant %v", shards, all, baseAll)
			}
			if fmt.Sprint(rng) != fmt.Sprint(baseRng) {
				t.Fatalf("range query disagrees at %d shards:\n got %v\nwant %v", shards, rng, baseRng)
			}
		})
	}
}

func TestAuthenticatedSession(t *testing.T) {
	db := open(t, Config{})
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (7)`)
	key := []byte("shared-secret")
	db.ProvisionClient("c1", key)
	c := NewClient("c1", key)
	nonce := []byte("fresh")
	if err := c.Attest(db.Attest(nonce), db.Measurement(), nonce); err != nil {
		t.Fatal(err)
	}
	req := c.NewRequest(`SELECT a FROM t`)
	resp, err := db.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyResponse(req, resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].I != 7 {
		t.Fatalf("rows %v", resp.Rows)
	}
}

func TestRecoverFrom(t *testing.T) {
	src := open(t, Config{Seed: 2})
	mustExec(t, src, `CREATE TABLE t (a INT PRIMARY KEY, b TEXT, INDEX(b))`)
	for i := 0; i < 50; i++ {
		mustExec(t, src, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'v%d')`, i, i%5))
	}
	dst := open(t, Config{Seed: 3})
	if err := dst.RecoverFrom(src, 1000); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, dst, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 50 {
		t.Fatalf("recovered %v rows", res.Rows[0][0])
	}
	// Secondary chain survives recovery.
	res = mustExec(t, dst, `SELECT COUNT(*) FROM t WHERE b = 'v3'`)
	if res.Rows[0][0].I != 10 {
		t.Fatalf("chain after recovery: %v", res.Rows)
	}
	if err := dst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestExplainPublic(t *testing.T) {
	db := open(t, Config{})
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY)`)
	out, err := db.Explain(`SELECT a FROM t WHERE a BETWEEN 1 AND 5`)
	if err != nil || !strings.Contains(out, "RangeScan") {
		t.Fatalf("explain %q, %v", out, err)
	}
}

func TestParseOnly(t *testing.T) {
	if err := ParseOnly(`SELECT 1 FROM t`); err != nil {
		t.Fatal(err)
	}
	if err := ParseOnly(`SELEC nope`); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestVerifierLifecycle(t *testing.T) {
	db := open(t, Config{})
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY)`)
	if err := db.StartVerifier(5); err != nil {
		t.Fatal(err)
	}
	if err := db.StartVerifier(5); err == nil {
		t.Fatal("second StartVerifier did not return an error")
	}
	// The verifier is asynchronous: keep driving operations until it has
	// completed at least one epoch (bounded by a deadline).
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; db.Stats().Rotations == 0 && time.Now().Before(deadline); i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
		if i%50 == 49 {
			time.Sleep(time.Millisecond)
		}
	}
	db.StopVerifier()
	if db.Stats().Rotations == 0 {
		t.Fatal("no verification epochs completed")
	}
	if err := db.Alarm(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsSurfaceCleanly(t *testing.T) {
	db := open(t, Config{})
	cases := []string{
		`SELECT * FROM missing`,
		`CREATE TABLE`,
		`INSERT INTO missing VALUES (1)`,
		`UPDATE missing SET a = 1`,
		`DELETE FROM missing`,
	}
	for _, q := range cases {
		if _, err := db.Exec(q); err == nil {
			t.Fatalf("Exec(%q) succeeded", q)
		}
	}
	var errNil error
	if errors.Is(errNil, nil) { // keep errors import honest
		_ = errNil
	}
}
