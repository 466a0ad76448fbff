package veridb

import (
	"bytes"
	"crypto/hmac"
	"fmt"
	"testing"

	"veridb/internal/client"
	"veridb/internal/portal"
	"veridb/internal/wire"
)

// The round trip's allocation bounds, each the count measured when the
// gate was set. What is left on the server is the answer (the response,
// its MAC, the result and its rows), the statement's shape key and
// literals, its snapshot, and the verified storage read.
const (
	serveAllocs  = 19 // db.Serve of a plan-cache hit returning one row
	clientAllocs = 1  // client NewRequest + VerifyResponse: the request MAC
	// The whole verified round trip (NewRequest, Serve, VerifyResponse) of
	// a plan-cache hit writing one row by primary key. Before writes ran as
	// compiled plan instances, these read 28, 88 and 87.
	insertAllocs = 21
	updateAllocs = 34
	deleteAllocs = 38
)

// TestServeRoundTripAllocs gates the allocations of one verified point
// read at both ends of the protocol: the portal serving a plan-cache hit
// (MAC check, execution, endorsement, replay window) and the client
// signing the request and verifying the response. Keyed MAC states, the
// buffers MAC and digest inputs are built in, and a cached plan's
// per-statement state are reused; a change that allocates any of them per
// statement again fails here. The write cases gate the whole round trip
// of a one-row INSERT, UPDATE and DELETE by primary key, each a hit whose
// read phase and value expressions were compiled once. A count, so it
// holds on any host; skipped under the race detector, where sync.Pool
// drops entries on purpose.
func TestServeRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled MAC states on purpose under the race detector")
	}
	db := open(t, Config{})
	mustExec(t, db, `CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`)
	queries := make([]string, 64)
	for k := range queries {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%d')`, k, k))
		queries[k] = fmt.Sprintf(`SELECT v FROM kv WHERE k = %d`, k)
	}
	key := []byte("round-trip-allocs-key")
	db.ProvisionClient("alice", key)
	c := client.New("alice", key)
	// Warm the plan cache, the keyed MAC pools and the replay window.
	for i := 0; i < 200; i++ {
		k := i % len(queries)
		req := c.NewRequest(queries[k])
		resp, err := db.Serve(req)
		if err == nil {
			err = c.VerifyResponse(req, resp)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != 1 || resp.Rows[0][0].S != fmt.Sprintf("value-%d", k) {
			t.Fatalf("key %d: rows %v", k, resp.Rows)
		}
	}
	const runs = 200 // AllocsPerRun calls the function once more to warm up

	t.Run("serve", func(t *testing.T) {
		reqs := make([]Request, runs+1)
		for i := range reqs {
			reqs[i] = c.NewRequest(queries[i%len(queries)])
		}
		i := 0
		var err error
		allocs := testing.AllocsPerRun(runs, func() {
			var resp *Response
			if resp, err = db.Serve(reqs[i]); err == nil && len(resp.Rows) != 1 {
				err = fmt.Errorf("rows %v", resp.Rows)
			}
			i++
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > serveAllocs {
			t.Errorf("Serve of a plan-cache hit: %.1f allocs, want <= %d", allocs, serveAllocs)
		}
	})

	t.Run("client", func(t *testing.T) {
		// bob's requests are served ahead of time by a client object whose
		// qids the measured one repeats: each NewRequest below rebuilds,
		// byte for byte, the request one of those responses answers.
		db.ProvisionClient("bob", key)
		ahead := client.New("bob", key)
		resps := make([]*Response, runs+1)
		for i := range resps {
			var err error
			if resps[i], err = db.Serve(ahead.NewRequest(queries[i%len(queries)])); err != nil {
				t.Fatal(err)
			}
		}
		bob := client.New("bob", key)
		i := 0
		var err error
		allocs := testing.AllocsPerRun(runs, func() {
			req := bob.NewRequest(queries[i%len(queries)])
			if verr := bob.VerifyResponse(req, resps[i]); verr != nil && err == nil {
				err = verr
			}
			i++
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > clientAllocs {
			t.Errorf("NewRequest + VerifyResponse: %.1f allocs, want <= %d", allocs, clientAllocs)
		}
	})

	roundTrip := func(q string) error {
		req := c.NewRequest(q)
		resp, err := db.Serve(req)
		if err == nil {
			err = c.VerifyResponse(req, resp)
		}
		if err == nil && resp.Affected != 1 {
			err = fmt.Errorf("%s: %d rows affected", q, resp.Affected)
		}
		return err
	}
	// Warm each write shape's cached instance on keys of its own.
	for k := 100; k < 300; k++ {
		for _, q := range []string{
			fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'w')`, k),
			fmt.Sprintf(`UPDATE kv SET v = 'x' WHERE k = %d`, k),
			fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, k),
		} {
			if err := roundTrip(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	ins, upd, del := make([]string, runs+1), make([]string, runs+1), make([]string, runs+1)
	for i := range ins {
		k := 1000 + i
		ins[i] = fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%d')`, k, k)
		upd[i] = fmt.Sprintf(`UPDATE kv SET v = 'updated-%d' WHERE k = %d`, i, k)
		del[i] = fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, k)
	}
	for _, w := range []struct {
		name  string
		qs    []string
		bound int
	}{
		{"insert", ins, insertAllocs},
		{"update", upd, updateAllocs},
		{"delete", del, deleteAllocs},
	} {
		t.Run(w.name, func(t *testing.T) {
			i := 0
			var err error
			allocs := testing.AllocsPerRun(runs, func() {
				if rerr := roundTrip(w.qs[i]); rerr != nil && err == nil {
					err = rerr
				}
				i++
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > float64(w.bound) {
				t.Errorf("verified %s round trip: %.1f allocs, want <= %d", w.name, allocs, w.bound)
			}
		})
	}
}

// TestReplayAfterReuse guards the rule that no reused buffer reaches an
// endorsed response: a response the portal caches for qid replay must
// come back as it was sent after the same plan instances, keyed MAC
// states and message buffers served hundreds of statements since.
func TestReplayAfterReuse(t *testing.T) {
	db := open(t, Config{})
	mustExec(t, db, `CREATE TABLE kv (k INT PRIMARY KEY, v TEXT, f FLOAT)`)
	for k := 0; k < 400; k++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%d-%s', %d.5)`, k, k, bytes.Repeat([]byte{'a' + byte(k%26)}, k%40), k))
	}
	key := []byte("replay-after-reuse-key")
	db.ProvisionClient("alice", key)
	c := client.New("alice", key)
	point := func(k int) string { return fmt.Sprintf(`SELECT v, f FROM kv WHERE k = %d`, k) }
	scan := func(lo int) string { return fmt.Sprintf(`SELECT k, v FROM kv WHERE k >= %d AND k < %d`, lo, lo+100) }
	serve := func(req Request) *Response {
		t.Helper()
		resp, err := db.Serve(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// 1. The statements whose responses are replayed: a point read and a
	// 100-row range scan, each verified and encoded as it goes out.
	reqs := []Request{c.NewRequest(point(7)), c.NewRequest(scan(150))}
	sent := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp := serve(req)
		if err := c.VerifyResponse(req, resp); err != nil {
			t.Fatal(err)
		}
		sent[i] = wire.EncodeResult(resp)
	}
	if rows := len(serve(c.NewRequest(scan(150))).Rows); rows != 100 {
		t.Fatalf("range scan returned %d rows", rows)
	}

	// 2. Statements of the same shapes reuse the cached instances' drain
	// batches, the keyed MAC states and their message buffers. A third
	// are alice's own: her cache keeps her last 128 responses, the two
	// above among them.
	bobKey := []byte("replay-after-reuse-bob")
	db.ProvisionClient("bob", bobKey)
	bob := client.New("bob", bobKey)
	for i := 0; i < 300; i++ {
		cl := bob
		if i%3 == 0 {
			cl = c
		}
		req := cl.NewRequest(point((i * 13) % 400))
		if i%2 == 1 {
			req = cl.NewRequest(scan((i * 7) % 300))
		}
		if err := cl.VerifyResponse(req, serve(req)); err != nil {
			t.Fatal(err)
		}
	}

	// 3. Retransmitted, each request gets its original endorsement back,
	// byte for byte, and it still verifies.
	for i, req := range reqs {
		resp := serve(req)
		if got := wire.EncodeResult(resp); !bytes.Equal(got, sent[i]) {
			t.Errorf("request %d: the replayed response encodes differently from the one sent", i)
		}
		if !hmac.Equal(portal.SignResponse(key, resp), resp.MAC) {
			t.Errorf("request %d: the replayed response does not verify", i)
		}
	}
}
