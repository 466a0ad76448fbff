package core

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"veridb/internal/client"
	"veridb/internal/plan"
	"veridb/internal/portal"
	"veridb/internal/record"
	"veridb/internal/storage"
)

func openTest(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func exec(t testing.TB, db *DB, q string) *portal.Result {
	t.Helper()
	res, err := db.Execute(q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func seed(t *testing.T, db *DB) {
	t.Helper()
	exec(t, db, `CREATE TABLE quote (id INT PRIMARY KEY, count INT, price FLOAT, INDEX(count))`)
	exec(t, db, `CREATE TABLE inventory (id INT PRIMARY KEY, count INT, descr TEXT)`)
	exec(t, db, `INSERT INTO quote VALUES (1,100,100.0),(2,100,200.0),(3,500,100.0),(4,600,100.0)`)
	exec(t, db, `INSERT INTO inventory VALUES (1,50,'desc1'),(3,200,'desc3'),(4,100,'desc4'),(6,100,'desc6')`)
}

func TestEndToEndSQL(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	res := exec(t, db, `SELECT q.id, q.count, i.count
		FROM quote AS q, inventory AS i
		WHERE q.id = i.id AND q.count > i.count`)
	if len(res.Rows) != 3 {
		t.Fatalf("paper join: %v", res.Rows)
	}
	if res.Columns[0] != "id" || res.Columns[2] != "count" {
		t.Fatalf("columns %v", res.Columns)
	}
	if err := db.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertWithColumnListAndNullDefaults(t *testing.T) {
	db := openTest(t)
	exec(t, db, `CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c FLOAT)`)
	res := exec(t, db, `INSERT INTO t (c, a) VALUES (1.5, 10)`)
	if res.Affected != 1 {
		t.Fatalf("affected %d", res.Affected)
	}
	rows := exec(t, db, `SELECT a, b, c FROM t`).Rows
	if len(rows) != 1 || rows[0][0].I != 10 || !rows[0][1].Null || rows[0][2].F != 1.5 {
		t.Fatalf("row %v", rows)
	}
}

func TestUpdateWithExpressionsAndWhere(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	res := exec(t, db, `UPDATE quote SET count = count + 10, price = 1.0 WHERE id >= 3`)
	if res.Affected != 2 {
		t.Fatalf("affected %d", res.Affected)
	}
	rows := exec(t, db, `SELECT id, count, price FROM quote WHERE id >= 3`).Rows
	for _, r := range rows {
		want := map[int64]int64{3: 510, 4: 610}[r[0].I]
		if r[1].I != want || r[2].F != 1.0 {
			t.Fatalf("row %v", r)
		}
	}
	// Chained column updated: secondary chain must reflect new values.
	rows = exec(t, db, `SELECT id FROM quote WHERE count = 510`).Rows
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("chain after update: %v", rows)
	}
}

func TestDeleteWithWhere(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	res := exec(t, db, `DELETE FROM quote WHERE count = 100`)
	if res.Affected != 2 {
		t.Fatalf("affected %d", res.Affected)
	}
	rows := exec(t, db, `SELECT id FROM quote`).Rows
	if len(rows) != 2 {
		t.Fatalf("remaining %v", rows)
	}
	if err := db.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePKSurfacesError(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	_, err := db.Execute(`INSERT INTO quote VALUES (1, 1, 1.0)`)
	if !errors.Is(err, storage.ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregationEndToEnd(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	rows := exec(t, db, `SELECT count, COUNT(*) AS n, SUM(price) FROM quote GROUP BY count ORDER BY count`).Rows
	if len(rows) != 3 {
		t.Fatalf("%v", rows)
	}
	if rows[0][0].I != 100 || rows[0][1].I != 2 || rows[0][2].F != 300 {
		t.Fatalf("group row %v", rows[0])
	}
}

func TestExplain(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	out, err := db.Explain(`SELECT id FROM quote WHERE count = 100`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RangeScan(quote as quote, col=count)") {
		t.Fatalf("explain:\n%s", out)
	}
	if _, err := db.Explain(`INSERT INTO quote VALUES (9,9,9.0)`); err == nil {
		t.Fatal("EXPLAIN of DML accepted")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := openTest(t)
	if _, err := db.Execute(`CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)`); err == nil {
		t.Fatal("two primary keys accepted")
	}
	if _, err := db.Execute(`CREATE TABLE t (a INT, INDEX(zzz))`); err == nil {
		t.Fatal("index on unknown column accepted")
	}
	// No explicit pk: first column becomes the key.
	exec(t, db, `CREATE TABLE t (a INT, b INT)`)
	exec(t, db, `INSERT INTO t VALUES (1, 2)`)
	if _, err := db.Execute(`INSERT INTO t VALUES (1, 3)`); !errors.Is(err, storage.ErrDuplicateKey) {
		t.Fatalf("first-column pk not enforced: %v", err)
	}
}

func TestPortalClientRoundTrip(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	key := []byte("pre-exchanged-key")
	db.Enclave().ProvisionMACKey("alice", key)
	c := client.New("alice", key)

	// Attestation first (Fig. 2 step 1 presupposes an attested channel).
	nonce := []byte("n1")
	if err := c.Attest(db.Enclave().Attest(nonce), db.Enclave().Measurement(), nonce); err != nil {
		t.Fatal(err)
	}

	req := c.NewRequest(`SELECT id FROM quote WHERE id = 3`)
	resp, err := db.Portal().Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyResponse(req, resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].I != 3 {
		t.Fatalf("rows %v", resp.Rows)
	}

	// Unauthorized client.
	bad := portal.Request{ClientID: "mallory", QID: 1, Query: "SELECT 1", MAC: []byte("x")}
	if _, err := db.Portal().Serve(bad); !errors.Is(err, portal.ErrUnauthorized) {
		t.Fatalf("mallory served: %v", err)
	}
	// Tampered query under a valid client.
	req2 := c.NewRequest(`SELECT id FROM quote`)
	req2.Query = `DELETE FROM quote`
	if _, err := db.Portal().Serve(req2); !errors.Is(err, portal.ErrUnauthorized) {
		t.Fatalf("tampered query served: %v", err)
	}
	// Replayed qid: the cached endorsement comes back instead of a
	// re-execution (retry idempotence for lost responses).
	again, err := db.Portal().Serve(req)
	if err != nil {
		t.Fatalf("cached replay rejected: %v", err)
	}
	if again.Seq != resp.Seq || !bytes.Equal(again.MAC, resp.MAC) {
		t.Fatalf("replay re-executed: seq %d vs %d", again.Seq, resp.Seq)
	}
}

func TestPortalResponseTamperDetected(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	key := []byte("k")
	db.Enclave().ProvisionMACKey("alice", key)
	c := client.New("alice", key)
	req := c.NewRequest(`SELECT id FROM quote WHERE id = 1`)
	resp, err := db.Portal().Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Rows[0][0] = record.Int(999) // adversary edits the result in flight
	if err := c.VerifyResponse(req, resp); !errors.Is(err, client.ErrBadMAC) {
		t.Fatalf("tampered response accepted: %v", err)
	}
}

func TestRollbackAttackDetected(t *testing.T) {
	// The adversary wipes the enclave (power failure) and replays: the
	// restarted portal reissues low sequence numbers, which the client's
	// tracker flags (§5.1).
	db := openTest(t)
	seed(t, db)
	key := []byte("k")
	db.Enclave().ProvisionMACKey("alice", key)
	c := client.New("alice", key)
	for i := 0; i < 3; i++ {
		req := c.NewRequest(`SELECT id FROM quote WHERE id = 1`)
		resp, err := db.Portal().Serve(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyResponse(req, resp); err != nil {
			t.Fatal(err)
		}
	}
	// "Restart" without honest recovery: fresh DB, same MAC key, counter
	// back at zero.
	evil, err := Open(Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	exec(t, evil, `CREATE TABLE quote (id INT PRIMARY KEY, count INT, price FLOAT)`)
	exec(t, evil, `INSERT INTO quote VALUES (1,100,100.0)`)
	evil.Enclave().ProvisionMACKey("alice", key)
	// The evil instance has a different attestation key, but suppose the
	// client only checks MACs on this request: the sequence number still
	// gives the rollback away.
	sawRollback := false
	for i := 0; i < 4; i++ {
		req := c.NewRequest(`SELECT id FROM quote WHERE id = 1`)
		resp, err := evil.Portal().Serve(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyResponse(req, resp); errors.Is(err, client.ErrRollback) {
			sawRollback = true
			break
		}
	}
	if !sawRollback {
		t.Fatal("rollback went undetected")
	}
}

func TestHonestRecoveryResumesCleanly(t *testing.T) {
	db := openTest(t)
	seed(t, db)
	key := []byte("k")
	db.Enclave().ProvisionMACKey("alice", key)
	c := client.New("alice", key)
	for i := 0; i < 5; i++ {
		req := c.NewRequest(`SELECT id FROM quote WHERE id = 1`)
		resp, _ := db.Portal().Serve(req)
		if err := c.VerifyResponse(req, resp); err != nil {
			t.Fatal(err)
		}
	}
	// Honest recovery: replay data from the replica (here: the old
	// instance itself) and resume the sequence above the client's maximum.
	recovered, err := Open(Config{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if err := recovered.Recover(db, c.Tracker().Max()); err != nil {
		t.Fatal(err)
	}
	recovered.Enclave().ProvisionMACKey("alice", key)
	rows := exec(t, recovered, `SELECT id FROM quote`).Rows
	if len(rows) != 4 {
		t.Fatalf("recovered rows %v", rows)
	}
	if err := recovered.Memory().VerifyAll(); err != nil {
		t.Fatalf("recovered instance fails verification: %v", err)
	}
	for i := 0; i < 3; i++ {
		req := c.NewRequest(`SELECT id FROM quote WHERE id = 1`)
		resp, err := recovered.Portal().Serve(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyResponse(req, resp); err != nil {
			t.Fatalf("post-recovery response %d rejected: %v", i, err)
		}
	}
}

func TestAuthenticatedExecutionErrors(t *testing.T) {
	db := openTest(t)
	key := []byte("k")
	db.Enclave().ProvisionMACKey("alice", key)
	c := client.New("alice", key)
	req := c.NewRequest(`SELECT * FROM nope`)
	resp, err := db.Portal().Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	err = c.VerifyResponse(req, resp)
	if err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinStrategyConfig(t *testing.T) {
	for _, j := range []plan.JoinStrategy{plan.JoinAuto, plan.JoinMerge, plan.JoinNested, plan.JoinHash, plan.JoinIndex} {
		db, err := Open(Config{Seed: 7, Join: j})
		if err != nil {
			t.Fatal(err)
		}
		seed(t, db)
		rows := exec(t, db, `SELECT q.id FROM quote q, inventory i WHERE q.id = i.id`).Rows
		if len(rows) != 3 {
			t.Fatalf("join strategy %d: %v", j, rows)
		}
		db.Close()
	}
}

func TestBackgroundVerifierIntegration(t *testing.T) {
	db, err := Open(Config{Seed: 11, VerifyEveryOps: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec(t, db, `CREATE TABLE t (a INT PRIMARY KEY, b INT)`)
	for i := 0; i < 500; i++ {
		if _, err := db.Execute(`INSERT INTO t VALUES (` + itoa(i) + `, 1)`); err != nil {
			t.Fatal(err)
		}
	}
	// The verifier runs in background goroutines; on a single-CPU box the
	// insert loop can finish before they are ever scheduled, so give them
	// a bounded window to complete an epoch before stopping.
	deadline := time.Now().Add(5 * time.Second)
	for db.Memory().Stats().Rotations == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	db.Memory().StopVerifier()
	if db.Memory().Stats().Rotations == 0 {
		t.Fatal("background verifier never completed an epoch")
	}
	if err := db.Memory().Alarm(); err != nil {
		t.Fatalf("false alarm: %v", err)
	}
}

func itoa(i int) string { return strconv.Itoa(i) }
