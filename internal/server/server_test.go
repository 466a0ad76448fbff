package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"veridb"
	"veridb/internal/client"
	"veridb/internal/govern"
	"veridb/internal/portal"
	"veridb/internal/wire"
)

// serveTCP runs a server with cfg on an ephemeral port.
func serveTCP(t *testing.T, cfg Config) net.Listener {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return listen(t, srv)
}

// listen serves srv on a loopback port until the test ends.
func listen(t *testing.T, srv *Server) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); srv.Drain(5 * time.Second) })
	go srv.Serve(ln)
	return ln
}

func openDB(t *testing.T, cfg veridb.Config) *veridb.DB {
	t.Helper()
	db, err := veridb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *veridb.DB, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

// TestServerConnectionDeadline: an idle session is reaped once the
// per-connection read deadline elapses (the deadline covers the very first
// header too).
func TestServerConnectionDeadline(t *testing.T) {
	db := openDB(t, veridb.Config{Seed: 3})
	ln := serveTCP(t, Config{DB: db, IOTimeout: 50 * time.Millisecond})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Send nothing; the server should hang up on its own.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection not closed by deadline")
	}
}

// binConn wraps a raw connection speaking frames.
type binConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialBinary(t *testing.T, addr string) *binConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &binConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (b *binConn) write(f wire.Frame) {
	b.t.Helper()
	if err := wire.WriteFrame(b.conn, f); err != nil {
		b.t.Fatal(err)
	}
}

func (b *binConn) read() wire.Frame {
	b.t.Helper()
	b.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := wire.ReadFrame(b.br, 0)
	if err != nil {
		b.t.Fatalf("read frame: %v", err)
	}
	return f
}

func (b *binConn) query(req portal.Request) {
	b.write(wire.Frame{Type: wire.TQuery, QID: req.QID, Payload: wire.EncodeQuery(req)})
}

// roundTrip sends one query and returns its decoded response with the
// client-side verification outcome (MAC, qid, sequence tracking).
func (b *binConn) roundTrip(c *client.Client, req portal.Request) (*portal.Response, error) {
	b.t.Helper()
	b.query(req)
	f := b.read()
	if f.Type != wire.TResult || f.QID != req.QID {
		b.t.Fatalf("qid %d answered with %v qid %d %q", req.QID, f.Type, f.QID, f.Payload)
	}
	resp, err := wire.DecodeResult(f.QID, f.Payload)
	if err != nil {
		b.t.Fatal(err)
	}
	return resp, c.VerifyResponse(req, resp)
}

// expectClosed fails unless the peer has closed the connection with
// nothing further to read.
func (b *binConn) expectClosed() {
	b.t.Helper()
	b.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := wire.ReadFrame(b.br, 0); !errors.Is(err, io.EOF) {
		b.t.Fatalf("connection not cleanly closed: frame %+v err %v", f, err)
	}
}

// TestBinaryPipelinedRoundTrip pushes a window of pipelined queries down
// one connection, then attestation and health, and MAC-verifies every
// response client-side — the codec carries typed row images, so the
// client checks the portal's endorsement end to end.
func TestBinaryPipelinedRoundTrip(t *testing.T) {
	db := openDB(t, veridb.Config{Seed: 5})
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY, b TEXT)`,
		`INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	key := []byte("bin-secret")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)

	ln := serveTCP(t, Config{DB: db})
	bc := dialBinary(t, ln.Addr().String())

	// Pipeline 8 queries: write them all before reading anything.
	reqs := make(map[uint64]portal.Request, 8)
	for i := 0; i < 8; i++ {
		req := alice.NewRequest(fmt.Sprintf(`SELECT b FROM t WHERE a = %d`, i%3+1))
		reqs[req.QID] = req
		bc.query(req)
	}
	for i := 0; i < 8; i++ {
		f := bc.read()
		if f.Type != wire.TResult {
			t.Fatalf("frame %d: type %v payload %q", i, f.Type, f.Payload)
		}
		req, ok := reqs[f.QID]
		if !ok {
			t.Fatalf("response for unknown qid %d", f.QID)
		}
		delete(reqs, f.QID)
		resp, err := wire.DecodeResult(f.QID, f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.VerifyResponse(req, resp); err != nil {
			t.Fatalf("qid %d fails MAC verification: %v", f.QID, err)
		}
		if resp.ErrMsg != "" || len(resp.Rows) != 1 {
			t.Fatalf("qid %d: %+v", f.QID, resp)
		}
	}
	if len(reqs) != 0 {
		t.Fatalf("%d responses missing", len(reqs))
	}

	// Attestation.
	nonce := []byte("bin-nonce")
	bc.write(wire.Frame{Type: wire.TAttest, QID: 100, Payload: wire.EncodeAttest(nonce)})
	f := bc.read()
	if f.Type != wire.TQuote || f.QID != 100 {
		t.Fatalf("attest answered with %v qid %d", f.Type, f.QID)
	}
	q, err := wire.DecodeQuote(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Attest(q, db.Measurement(), nonce); err != nil {
		t.Fatalf("binary quote rejected: %v", err)
	}

	// Health (JSON payload).
	bc.write(wire.Frame{Type: wire.THealth, QID: 101})
	f = bc.read()
	if f.Type != wire.THealthInfo || f.QID != 101 {
		t.Fatalf("health answered with %v qid %d", f.Type, f.QID)
	}
	var h wireHealth
	if err := json.Unmarshal(f.Payload, &h); err != nil {
		t.Fatal(err)
	}
	if h.Quarantined || h.Alarm != "" {
		t.Fatalf("health %+v", h)
	}

	// A forged MAC gets an unauthenticated TError, and the connection
	// keeps serving afterwards.
	forged := alice.NewRequest(`SELECT 1`)
	forged.MAC = []byte("forged")
	bc.query(forged)
	f = bc.read()
	if f.Type != wire.TError || !strings.Contains(string(f.Payload), "authorization failed") {
		t.Fatalf("forged request answered with %v %q", f.Type, f.Payload)
	}
	// So does a client the enclave holds no key for.
	stranger := client.New("mallory", key).NewRequest(`SELECT 1`)
	bc.query(stranger)
	f = bc.read()
	if f.Type != wire.TError || f.QID != stranger.QID || !strings.Contains(string(f.Payload), "authorization failed") {
		t.Fatalf("unknown client answered with %v qid %d %q", f.Type, f.QID, f.Payload)
	}
	// And a frame type only the server sends is refused by address.
	bc.write(wire.Frame{Type: wire.TResult, QID: 102})
	f = bc.read()
	if f.Type != wire.TError || f.QID != 102 || !strings.Contains(string(f.Payload), "unexpected frame type") {
		t.Fatalf("client-sent TResult answered with %v qid %d %q", f.Type, f.QID, f.Payload)
	}
	ok := alice.NewRequest(`SELECT b FROM t WHERE a = 1`)
	bc.query(ok)
	f = bc.read()
	if f.Type != wire.TResult || f.QID != ok.QID {
		t.Fatalf("connection unusable after refusal: %v %q", f.Type, f.Payload)
	}
}

// TestServerHealthReportsFailedCheckpoint: the health document carries
// core's durability fields — a checkpoint that cannot write its
// segment (a directory squats on the path) shows up as checkpointError,
// with no WAL error beside it.
func TestServerHealthReportsFailedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "ckpt-0000000000000001-t.seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	db := openDB(t, veridb.Config{Seed: 4, DataDir: dir})
	mustExec(t, db,
		`CREATE TABLE t (a INT PRIMARY KEY, b TEXT)`,
		`INSERT INTO t VALUES (1, 'hello')`)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with a directory on its segment path")
	}
	ln := serveTCP(t, Config{DB: db})
	bc := dialBinary(t, ln.Addr().String())
	bc.write(wire.Frame{Type: wire.THealth, QID: 1})
	f := bc.read()
	var h wireHealth
	if err := json.Unmarshal(f.Payload, &h); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.CheckpointError, "ckpt-0000000000000001-t.seg") || h.WALError != "" || h.Quarantined {
		t.Fatalf("health after a failed checkpoint: %s", f.Payload)
	}
}

// TestServerHealthOp: the health operation reports the verifier state and
// flips to quarantined after injected tampering is detected.
func TestServerHealthOp(t *testing.T) {
	db := openDB(t, veridb.Config{Seed: 4})
	mustExec(t, db,
		`CREATE TABLE t (a INT PRIMARY KEY, b TEXT)`,
		`INSERT INTO t VALUES (1, 'hello')`)
	ln := serveTCP(t, Config{DB: db})
	bc := dialBinary(t, ln.Addr().String())

	health := func() wireHealth {
		t.Helper()
		bc.write(wire.Frame{Type: wire.THealth, QID: 1})
		f := bc.read()
		if f.Type != wire.THealthInfo {
			t.Fatalf("health answered with %v %q", f.Type, f.Payload)
		}
		var h wireHealth
		if err := json.Unmarshal(f.Payload, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	if h := health(); h.Quarantined || h.Alarm != "" {
		t.Fatalf("clean instance reports %+v", h)
	}
	if err := db.InjectTamper("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.Verify(); err == nil {
		t.Fatal("tamper not detected")
	}
	if h := health(); !h.Quarantined || h.Alarm == "" {
		t.Fatalf("tampered instance reports %+v", h)
	}

	// Queries are now fenced with an authenticated quarantine response.
	key := []byte("k")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)
	resp, verr := bc.roundTrip(alice, alice.NewRequest(`SELECT b FROM t WHERE a = 1`))
	if !errors.Is(verr, client.ErrQuarantined) || !resp.Quarantined || len(resp.Rows) != 0 {
		t.Fatalf("quarantined query answered %+v (verification: %v)", resp, verr)
	}
}

// TestServerSnapshotSessionOverWire drives BEGIN SNAPSHOT / COMMIT over
// TCP with the client package's request helpers: the pinned client's
// reads stay frozen while another wire client writes, the pinned session
// is read-only, and COMMIT releases the pin. Every response MAC-verifies.
func TestServerSnapshotSessionOverWire(t *testing.T) {
	db := openDB(t, veridb.Config{Seed: 3})
	mustExec(t, db,
		`CREATE TABLE t (a INT PRIMARY KEY, b INT)`,
		`INSERT INTO t VALUES (1, 10), (2, 20)`)
	db.ProvisionClient("alice", []byte("ka"))
	db.ProvisionClient("bob", []byte("kb"))
	alice := client.New("alice", []byte("ka"))
	bob := client.New("bob", []byte("kb"))

	ln := serveTCP(t, Config{DB: db})
	bc := dialBinary(t, ln.Addr().String())

	// send returns the verified response; an authenticated execution error
	// stays in resp.ErrMsg, anything else fails the test.
	send := func(c *client.Client, req portal.Request) *portal.Response {
		t.Helper()
		resp, verr := bc.roundTrip(c, req)
		var se *client.ServerError
		if verr != nil && !errors.As(verr, &se) {
			t.Fatalf("%s: response fails verification: %v", req.Query, verr)
		}
		return resp
	}

	begin := send(alice, alice.NewBeginSnapshotRequest())
	if begin.ErrMsg != "" || len(begin.Rows) != 1 || begin.Columns[0] != "snapshot_seq" {
		t.Fatalf("BEGIN SNAPSHOT over wire: %+v", begin)
	}
	if r := send(bob, bob.NewRequest(`INSERT INTO t VALUES (3, 30)`)); r.ErrMsg != "" {
		t.Fatalf("bob insert: %+v", r)
	}
	if r := send(alice, alice.NewRequest(`SELECT a FROM t ORDER BY a`)); r.ErrMsg != "" || len(r.Rows) != 2 {
		t.Fatalf("alice pinned read saw bob's write: %+v", r)
	}
	if r := send(bob, bob.NewRequest(`SELECT a FROM t ORDER BY a`)); r.ErrMsg != "" || len(r.Rows) != 3 {
		t.Fatalf("bob read: %+v", r)
	}
	if r := send(alice, alice.NewRequest(`DELETE FROM t WHERE a = 1`)); !strings.Contains(r.ErrMsg, "read-only") {
		t.Fatalf("alice write under pin: %+v", r)
	}
	if r := send(alice, alice.NewCommitSnapshotRequest()); r.ErrMsg != "" {
		t.Fatalf("alice COMMIT: %+v", r)
	}
	if r := send(alice, alice.NewRequest(`SELECT a FROM t ORDER BY a`)); r.ErrMsg != "" || len(r.Rows) != 3 {
		t.Fatalf("alice post-COMMIT read: %+v", r)
	}
}

// TestBinaryOutOfOrderCompletion: a slow scan pipelined ahead of a point
// lookup completes after it — the writer emits responses in completion
// order and the client matches by qid. Scheduling is probabilistic, so the
// test retries; one out-of-order observation proves the path.
func TestBinaryOutOfOrderCompletion(t *testing.T) {
	db := openDB(t, veridb.Config{Seed: 6})
	mustExec(t, db, `CREATE TABLE big (a INT PRIMARY KEY, b INT)`,
		`CREATE TABLE small (a INT PRIMARY KEY, b INT)`,
		`INSERT INTO small VALUES (1, 10)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 4000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	mustExec(t, db, sb.String())
	key := []byte("ooo-secret")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)

	ln := serveTCP(t, Config{DB: db})

	for attempt := 0; attempt < 10; attempt++ {
		bc := dialBinary(t, ln.Addr().String())
		slow := alice.NewRequest(`SELECT a, b FROM big WHERE b >= 0 ORDER BY a`)
		fast := alice.NewRequest(`SELECT b FROM small WHERE a = 1`)
		bc.query(slow)
		bc.query(fast)
		first, second := bc.read(), bc.read()
		for _, f := range []wire.Frame{first, second} {
			if f.Type != wire.TResult {
				t.Fatalf("type %v payload %q", f.Type, f.Payload)
			}
			req := slow
			if f.QID == fast.QID {
				req = fast
			}
			resp, err := wire.DecodeResult(f.QID, f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := alice.VerifyResponse(req, resp); err != nil {
				t.Fatalf("qid %d fails MAC verification: %v", f.QID, err)
			}
		}
		if first.QID == fast.QID && second.QID == slow.QID {
			return // out-of-order completion observed
		}
		bc.conn.Close()
	}
	t.Fatal("pipelined fast query never completed ahead of the slow scan")
}

// TestBinaryPerFrameOverload: with a one-slot admission gate
// and the slot pinned by a direct slow statement, every query in a
// pipelined burst is refused per-frame with a typed ErrOverloaded carrying
// a RetryAfter hint — the refusals don't stall the window or poison the
// connection, and a fresh-qid retry succeeds once the slot frees.
func TestBinaryPerFrameOverload(t *testing.T) {
	db := openDB(t, veridb.Config{
		Seed:                    7,
		MaxConcurrentStatements: 1,
	})
	mustExec(t, db, `CREATE TABLE big (a INT PRIMARY KEY, b INT)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 20000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	mustExec(t, db, sb.String())
	key := []byte("shed-secret")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)

	ln := serveTCP(t, Config{DB: db})
	bc := dialBinary(t, ln.Addr().String())

	// Pin the only admission slot with a direct slow scan, then wait until
	// the gate reports it in flight.
	hold := make(chan error, 1)
	go func() {
		_, err := db.Exec(`SELECT a, b FROM big WHERE b >= 0 ORDER BY a`)
		hold <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if db.Govern().Admission.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("direct statement never acquired the admission slot")
		}
	}

	const burst = 16
	reqs := make(map[uint64]portal.Request, burst)
	for i := 0; i < burst; i++ {
		req := alice.NewRequest(`SELECT a FROM big WHERE a = 1`)
		reqs[req.QID] = req
		bc.query(req)
	}
	for i := 0; i < burst; i++ {
		f := bc.read()
		req, ok := reqs[f.QID]
		if !ok {
			t.Fatalf("response for unknown qid %d", f.QID)
		}
		delete(reqs, f.QID)
		// A shed is still an authenticated response: the portal endorses
		// the refusal so a middlebox cannot forge overload signals.
		if f.Type != wire.TResult {
			t.Fatalf("qid %d answered with %v (%q) while the slot was pinned", f.QID, f.Type, f.Payload)
		}
		resp, err := wire.DecodeResult(f.QID, f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if verr := alice.VerifyResponse(req, resp); !errors.Is(verr, govern.ErrOverloaded) {
			t.Fatalf("qid %d: want a MAC-verified overload refusal, got %v (resp %+v)", f.QID, verr, resp)
		}
		oe, ok := govern.ParseOverloaded(resp.ErrMsg)
		if !ok || oe.RetryAfter <= 0 {
			t.Fatalf("overload refusal without a RetryAfter hint: %q", resp.ErrMsg)
		}
	}
	if err := <-hold; err != nil {
		t.Fatalf("pinned statement failed: %v", err)
	}
	// Shed load did not poison the connection: a retry with a FRESH qid
	// succeeds once the slot frees (the shed qids were consumed — the
	// portal's at-most-once window rejects their reuse, so the client must
	// and does sign a new qid).
	retry := alice.NewRequest(`SELECT a FROM big WHERE a = 1`)
	bc.query(retry)
	f := bc.read()
	if f.Type != wire.TResult || f.QID != retry.QID {
		t.Fatalf("post-shed retry answered with %v %q", f.Type, f.Payload)
	}
}

// TestBinaryOversizedFrameTypedRefusal: a frame declaring a payload past
// the cap is refused by address — the TError carries the offending qid and
// a message that parses back to the typed too-large error — then the
// connection closes.
func TestBinaryOversizedFrameTypedRefusal(t *testing.T) {
	db := openDB(t, veridb.Config{Seed: 8})
	srv, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	srv.maxMessage = 256
	ln := listen(t, srv)
	bc := dialBinary(t, ln.Addr().String())

	// Header only: declares 1024 payload bytes against a 256-byte cap.
	hdr := wire.AppendHeader(nil, wire.TQuery, 77, 1024)
	if _, err := bc.conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	f := bc.read()
	if f.Type != wire.TError || f.QID != 77 {
		t.Fatalf("refusal %v qid %d", f.Type, f.QID)
	}
	tl, ok := wire.ParseTooLarge(string(f.Payload))
	if !ok || tl.Limit != 256 {
		t.Fatalf("refusal %q did not parse as typed too-large (%+v, %v)", f.Payload, tl, ok)
	}
	bc.expectClosed()
}

// TestBinaryAbruptDisconnectLeaksNothing: killing a client mid-pipeline
// (responses unread, handlers in flight) must unwind the reader, all
// handler goroutines, and the writer.
func TestBinaryAbruptDisconnectLeaksNothing(t *testing.T) {
	db := openDB(t, veridb.Config{Seed: 9})
	mustExec(t, db, `CREATE TABLE big (a INT PRIMARY KEY, b INT)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	mustExec(t, db, sb.String())
	key := []byte("leak-secret")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)

	srv, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	srv.maxInflight = 4
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln)

	before := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the pipeline with slow scans, read nothing, and vanish.
	for i := 0; i < 8; i++ {
		req := alice.NewRequest(`SELECT a, b FROM big WHERE b >= 0 ORDER BY a`)
		if err := wire.WriteFrame(conn, wire.Frame{Type: wire.TQuery, QID: req.QID, Payload: wire.EncodeQuery(req)}); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()

	// The session must fully unwind: reader, handlers, writer.
	ln.Close()
	if !srv.Drain(10 * time.Second) {
		t.Fatal("server did not drain after abrupt client disconnect")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after disconnect: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The database is still healthy and serving (no pinned state left by
	// the dead connection).
	if _, err := db.Exec(`INSERT INTO big VALUES (100000, 1)`); err != nil {
		t.Fatalf("database unusable after disconnect: %v", err)
	}
}

// TestConnectionLevelRefusals: whatever the server cannot read as a frame
// it speaks — a JSON line (the retired protocol's opening), a frame from a
// future protocol version, a type byte it does not know — and a connection
// past MaxConns each draw exactly one TError addressed to qid 0, the
// connection-level address, and then a clean close. The refusal frame
// races the close; `make flake` repeats this test.
func TestConnectionLevelRefusals(t *testing.T) {
	db := openDB(t, veridb.Config{Seed: 10})
	ln := serveTCP(t, Config{DB: db})

	v2 := wire.AppendHeader(nil, wire.THealth, 7, 0)
	v2[2] = wire.Version + 1
	badType := wire.AppendHeader(nil, wire.Type(0x7f), 7, 0)
	for _, tc := range []struct {
		name  string
		bytes []byte
		want  error
	}{
		{"json line", []byte("{\"op\":\"health\"}\n"), wire.ErrBadMagic},
		{"future version", v2, wire.ErrBadVersion},
		{"unknown type", badType, wire.ErrBadType},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bc := dialBinary(t, ln.Addr().String())
			if _, err := bc.conn.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			f := bc.read()
			if f.Type != wire.TError || f.QID != 0 || !strings.Contains(string(f.Payload), tc.want.Error()) {
				t.Fatalf("refusal %v qid %d %q, want a qid-0 TError naming %q", f.Type, f.QID, f.Payload, tc.want)
			}
			bc.expectClosed()
		})
	}

	t.Run("over MaxConns", func(t *testing.T) {
		ln := serveTCP(t, Config{DB: db, MaxConns: 1})
		holder := dialBinary(t, ln.Addr().String())
		holder.write(wire.Frame{Type: wire.THealth, QID: 1})
		holder.read() // the holder is being served: the slot is taken
		bc := dialBinary(t, ln.Addr().String())
		f := bc.read()
		if f.Type != wire.TError || f.QID != 0 || !strings.Contains(string(f.Payload), "capacity") {
			t.Fatalf("refusal %v qid %d %q, want a qid-0 TError naming capacity", f.Type, f.QID, f.Payload)
		}
		bc.expectClosed()
	})
}

// TestDrainBesideAcceptLoop calls Drain while Serve is still accepting: a
// new session must be counted in without racing the wait (a WaitGroup's Add
// at count zero beside its Wait is a misuse the race detector reports), a
// Drain that cannot finish times out, and the one after the listener closes
// does finish.
func TestDrainBesideAcceptLoop(t *testing.T) {
	srv, err := New(Config{DB: openDB(t, veridb.Config{Seed: 9})})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	dialed := make(chan struct{})
	go func() {
		defer close(dialed)
		for i := 0; i < 40; i++ {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			conn.Close()
		}
	}()
	for dialing := true; dialing; {
		select {
		case <-dialed:
			dialing = false
		default:
			srv.Drain(time.Millisecond)
		}
	}
	ln.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if !srv.Drain(10 * time.Second) {
		t.Fatal("server did not drain after the listener closed")
	}
}
