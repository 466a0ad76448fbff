package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"veridb/internal/client"
	"veridb/internal/plan"
	"veridb/internal/portal"
	"veridb/internal/vmem"
)

// execGoldens is the endorsed workload of the batch-capacity property test
// with the answers the deleted tuple-at-a-time executor gave: the response
// digest and MAC of every query, recorded at the last commit that had the
// scalar path (ExecBatchSize 1 there) for client "alice" under the key
// below. Scans, filters, expression projections, aggregates, a join, sort,
// limit, and two failing queries — error responses are sequenced and MACed
// like results. All six layouts and join strategies gave these same nine
// responses, so one column of goldens serves every variant.
var execGoldens = []struct {
	query       string
	rows        int
	errMsg      string
	digest, mac string
}{
	{`SELECT id, cat, qty, price, name FROM items`, 200, "",
		"7b6f114c9aedce47f2ee887f9148da59515ca51ea46d9b7be364e4f91419faa7",
		"d0ff7454ccc940b70090bd50d147227769e20736734c7c1c9b3ea9ef046400c2"},
	{`SELECT id, name FROM items WHERE qty > 6 AND price < 70.0`, 63, "",
		"4566a25e949522153914bf1bab57e16c7868b3bdcb183e5229e7eb269ffbcf9b",
		"f1aa8ee7bdabf94c2c17bbac4a5c2f87278f694bb98d334c2710fbfc6e9b1dff"},
	{`SELECT id, qty * 2 + cat FROM items WHERE id >= 20 AND id < 180 ORDER BY id DESC`, 160, "",
		"9aed5412959b0bb06bf06b71942c5a192719c622e3536170f717d376e10f6b8f",
		"d339da6b679b353c48dc4cad2319fc517cfaf2d1bbefb7330c877c5b04f45948"},
	{`SELECT cat, COUNT(*), SUM(qty), AVG(price), MIN(id), MAX(id) FROM items GROUP BY cat ORDER BY cat`, 10, "",
		"bd5704e9e38472d2be975903ec5a650caad257befbf94a883b60776091904371",
		"49fd63c50fa0c186076a4211312a0115ee897539e242acf2be67d4ebe0230040"},
	{`SELECT i.id, c.label FROM items i JOIN cats c ON i.cat = c.cat WHERE i.qty = 3 ORDER BY i.id`, 16, "",
		"6b819480665bd3d770620a017c321bf234a3e02e4f45118ef5ee493ef1dfc97e",
		"60e0f7491031aecccc998415ee9635a97b6d2abb1e94c505b914fc7c30ad5529"},
	{`SELECT id, price FROM items ORDER BY price DESC LIMIT 7`, 7, "",
		"8e13c70e54e52eca1d013d581f1dc5956544c1520e559513e1ed930b9f635d37",
		"c27485ccd07c70b692c1fbcf3e8210e751dc78de6639184e19ddeae0e6e357d9"},
	{`SELECT COUNT(*) FROM items WHERE name <> 'item-007'`, 1, "",
		"0a1b7518e8548768c763a7ee5b914a9d531e8c46f6c0f35ad68f548db1b8b2f2",
		"79a67f2f32b4fdbce0bb9dc7bcbceeb6aeb1936713d535930442ab814889a19a"},
	{`SELECT id / (id - id) FROM items`, 0, "engine: integer division by zero", // mid-scan
		"00957275dd8f43f02f5349e41abd945bc10104bd1a0f54394fccfb3ed6163284",
		"289501cb02cea8f4215861ee3f08834ebed28c569d35971d0f3b37162f171991"},
	{`SELECT * FROM missing`, 0, `storage: no such table: "missing"`, // plan time
		"d5d1dfcaedb1f4a4eb76102ebb5cda6522951d9b05682774e2b618080e8b649c",
		"ad19aec459c4bb2f8bb6013a43f061c00ad97c464a289fab35edb8e9f54a1f68"},
}

// TestExecCapacityEndorsementGoldens is the batch-capacity property test:
// for every storage layout and join strategy, serving the same
// authenticated workload at ExecBatchSize 1, 2, 3 and 256 must reproduce
// the recorded responses of the tuple-at-a-time executor bit for bit —
// same row count, sequence number and error text, same digest over
// qid/seq/columns/rows in order, same MAC. Batch capacity must be invisible
// to the client's endorsement checks.
func TestExecCapacityEndorsementGoldens(t *testing.T) {
	key := []byte("exec-batch-property-key")
	variants := []struct {
		name string
		cfg  Config
	}{
		{"unsharded", Config{}},
		{"sharded", Config{TableShards: 4, Memory: vmem.Config{VerifyWorkers: 2}}},
		{"joinHash", Config{Join: plan.JoinHash}},
		{"joinMerge", Config{Join: plan.JoinMerge}},
		{"joinNested", Config{Join: plan.JoinNested}},
		{"joinIndex", Config{Join: plan.JoinIndex}},
	}
	for _, v := range variants {
		for _, capacity := range []int{1, 2, 3, 256} {
			t.Run(fmt.Sprintf("%s/capacity%d", v.name, capacity), func(t *testing.T) {
				cfg := v.cfg
				cfg.Seed = 7
				cfg.ExecBatchSize = capacity
				db, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				exec(t, db, `CREATE TABLE items (id INT PRIMARY KEY, cat INT, qty INT, price FLOAT, name TEXT)`)
				exec(t, db, `CREATE TABLE cats (cat INT PRIMARY KEY, label TEXT)`)
				for c := 0; c < 10; c++ {
					exec(t, db, fmt.Sprintf(`INSERT INTO cats VALUES (%d, 'cat-%d')`, c, c))
				}
				for i := 0; i < 200; i++ {
					exec(t, db, fmt.Sprintf(`INSERT INTO items VALUES (%d, %d, %d, %g, 'item-%03d')`,
						i, i%10, i%13, float64(i)*0.5, i))
				}
				db.Enclave().ProvisionMACKey("alice", key)
				// A fresh client, so the qid sequence is the recorded one.
				c := client.New("alice", key)
				for i, g := range execGoldens {
					req := c.NewRequest(g.query)
					resp, err := db.Portal().Serve(req)
					if err != nil {
						t.Fatalf("Serve(%q): %v", g.query, err)
					}
					// A ServerError is an authenticated execution failure:
					// MAC and sequence checks passed. Anything else (bad
					// MAC, rollback) fails the test.
					var srvErr *client.ServerError
					if err := c.VerifyResponse(req, resp); err != nil && !errors.As(err, &srvErr) {
						t.Fatalf("VerifyResponse(%q): %v", g.query, err)
					}
					if resp.QID != uint64(i+1) || resp.Seq != uint64(i+1) {
						t.Fatalf("%q: qid/seq (%d,%d), recorded (%d,%d)", g.query, resp.QID, resp.Seq, i+1, i+1)
					}
					if resp.ErrMsg != g.errMsg {
						t.Fatalf("%q: error %q, recorded %q", g.query, resp.ErrMsg, g.errMsg)
					}
					if len(resp.Rows) != g.rows {
						t.Fatalf("%q: %d rows, recorded %d", g.query, len(resp.Rows), g.rows)
					}
					if got := hex.EncodeToString(portal.ResponseDigest(resp)); got != g.digest {
						t.Fatalf("%q: response digest %s, recorded %s", g.query, got, g.digest)
					}
					if got := hex.EncodeToString(resp.MAC); got != g.mac {
						t.Fatalf("%q: response MAC %s, recorded %s", g.query, got, g.mac)
					}
				}
				if err := db.Memory().VerifyAll(); err != nil {
					t.Fatalf("verification failed after workload: %v", err)
				}
			})
		}
	}
}
