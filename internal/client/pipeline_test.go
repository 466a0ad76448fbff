package client_test

// Pipeline tests run against the real server stack (internal/server over
// TCP), not a mock: the contract under test is the wire behavior —
// out-of-order completion, per-frame shed handling, at-most-once
// retransmission — and only the real reader/writer/handler loops exhibit
// it. This file is an external test package because the veridb root
// package imports internal/client.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"veridb"
	"veridb/internal/chaos"
	"veridb/internal/client"
	"veridb/internal/portal"
	"veridb/internal/server"
	"veridb/internal/wire"
)

func startServer(t *testing.T, db *veridb.DB, cfg server.Config) net.Listener {
	return startFlakyServer(t, db, cfg, chaos.WireConfig{})
}

// startFlakyServer serves db behind the wire-fault layer: the server's
// writes — its responses — are duplicated, delayed or cut off as faults
// says (the zero value injects nothing).
func startFlakyServer(t *testing.T, db *veridb.DB, cfg server.Config, faults chaos.WireConfig) net.Listener {
	t.Helper()
	cfg.DB = db
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); srv.Drain(5 * time.Second) })
	go srv.Serve(chaos.WrapListener(ln, faults))
	return ln
}

// dialPipeline connects a pipeline under the shipped policy.
func dialPipeline(t *testing.T, c *client.Client, addr string) *client.Pipeline {
	t.Helper()
	p := client.NewPipeline(c, dial(t, addr))
	t.Cleanup(func() { p.Close() })
	return p
}

// dialWith connects a pipeline under a test's window and retry policy.
func dialWith(t *testing.T, c *client.Client, addr string, window int, retryTimeout time.Duration, retries int, backoff time.Duration) *client.Pipeline {
	t.Helper()
	p := client.NewPipelineWith(c, dial(t, addr), window, retryTimeout, retries, backoff)
	t.Cleanup(func() { p.Close() })
	return p
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func seedBig(t testing.TB, db *veridb.DB, rows int) {
	t.Helper()
	if _, err := db.Exec(`CREATE TABLE big (a INT PRIMARY KEY, b INT)`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineVerifiedQueriesAttestAndHealth pushes a window of concurrent
// queries through one connection and MAC-verifies every response; attest
// and health share the pipeline with them.
func TestPipelineVerifiedQueriesAttestAndHealth(t *testing.T) {
	db, err := veridb.Open(veridb.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT PRIMARY KEY, b TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')`); err != nil {
		t.Fatal(err)
	}
	key := []byte("pipe-secret")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)

	ln := startServer(t, db, server.Config{})
	p := dialPipeline(t, alice, ln.Addr().String())

	if err := p.Attest(db.Measurement(), []byte("pipeline-nonce")); err != nil {
		t.Fatalf("attest over pipeline: %v", err)
	}

	calls := make([]*client.Call, 40)
	for i := range calls {
		calls[i] = p.Go(fmt.Sprintf(`SELECT b FROM t WHERE a = %d`, i%3+1))
	}
	for i, call := range calls {
		resp, err := call.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(resp.Rows) != 1 {
			t.Fatalf("call %d: %+v", i, resp)
		}
	}
	// Every sequence number arrived exactly once: 40 data responses, no
	// rollback alarms, whatever order they completed in.
	if n := alice.Tracker().Max(); n == 0 {
		t.Fatal("tracker recorded nothing")
	}

	raw, err := p.Health()
	if err != nil {
		t.Fatalf("health over pipeline: %v", err)
	}
	if !strings.Contains(string(raw), `"epochs"`) {
		t.Fatalf("health payload %q", raw)
	}

	// An authenticated execution error surfaces as ServerError, verified.
	if _, err := p.Do(`SELECT b FROM nope`); err == nil {
		t.Fatal("query against missing table succeeded")
	} else {
		var se *client.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("want ServerError, got %v", err)
		}
	}
}

// TestPipelineOverloadRetriesFreshQID: calls launched while the single
// admission slot is pinned are shed with the typed overload refusal; the
// pipeline retries them under fresh qids (the shed consumed the old ones)
// honoring RetryAfter, and they succeed once the slot frees — without the
// caller seeing any of it.
func TestPipelineOverloadRetriesFreshQID(t *testing.T) {
	db, err := veridb.Open(veridb.Config{
		Seed:                    22,
		MaxConcurrentStatements: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedBig(t, db, 20000)
	key := []byte("shed-pipe")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)

	ln := startServer(t, db, server.Config{})
	p := dialWith(t, alice, ln.Addr().String(), 8, 0, 50, 2*time.Millisecond)

	// Pin the only slot with a direct slow scan.
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

	calls := make([]*client.Call, 3)
	for i := range calls {
		calls[i] = p.Go(`SELECT a FROM big WHERE a = 1`)
	}
	if err := <-hold; err != nil {
		t.Fatalf("pinned statement failed: %v", err)
	}
	retried := 0
	for i, call := range calls {
		resp, err := call.Wait()
		if err != nil {
			t.Fatalf("call %d never recovered from shed: %v", i, err)
		}
		if len(resp.Rows) != 1 {
			t.Fatalf("call %d: %+v", i, resp)
		}
		if call.Attempts() > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no call was shed while the slot was pinned — the test exercised nothing")
	}
	// The shed statistics confirm typed refusals happened server-side.
	if db.Govern().Admission.Shed == 0 {
		t.Fatal("admission gate recorded no sheds")
	}
}

// TestPipelineRetransmitIsAtMostOnce: a retransmission (same qid, same
// MAC) racing its original execution draws the portal's "query id
// replayed" refusal, which the pipeline ignores — the original response
// completes the call, exactly one execution happens, and the sequence
// tracker sees no duplicate.
func TestPipelineRetransmitIsAtMostOnce(t *testing.T) {
	db, err := veridb.Open(veridb.Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedBig(t, db, 20000)
	key := []byte("rexmit-pipe")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)

	ln := startServer(t, db, server.Config{})
	// Retransmit every 10ms, up to 200 times.
	p := dialWith(t, alice, ln.Addr().String(), 4, 10*time.Millisecond, 200, 5*time.Millisecond)

	// The scan takes many retransmission deadlines: the call retransmits while the
	// original executes.
	call := p.Go(`SELECT a, b FROM big WHERE b >= 0 ORDER BY a`)
	resp, rerr := call.Wait()
	if rerr != nil {
		t.Fatalf("slow call failed: %v", rerr)
	}
	if len(resp.Rows) != 20000 {
		t.Fatalf("scan returned %d rows", len(resp.Rows))
	}
	if call.Attempts() == 0 {
		t.Fatal("call never retransmitted — the deadline did not fire")
	}
	// One more query: the connection survived the replay refusals.
	if resp, err := p.Do(`SELECT a FROM big WHERE a = 7`); err != nil || len(resp.Rows) != 1 {
		t.Fatalf("follow-up after retransmissions: %v %+v", err, resp)
	}
}

// TestPipelineReplayedQIDFailsTheCall: a new client under an id the
// portal has already served starts its qids at 1, which the portal refuses
// as replayed. The shipped pipeline does not retransmit, so nothing else
// will answer: the refusal must complete the call, as a ServerError that
// unwraps to portal.ErrReplayedQID. Taken for a retransmission's race with
// the original, it left the call waiting forever.
func TestPipelineReplayedQIDFailsTheCall(t *testing.T) {
	db, err := veridb.Open(veridb.Config{Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	key := []byte("replayed-pipe")
	db.ProvisionClient("alice", key)
	ln := startServer(t, db, server.Config{})

	// The first client's qid 1 is another statement: the portal's replay
	// window answers only the request it kept.
	first := dialPipeline(t, client.New("alice", key), ln.Addr().String())
	if _, err := first.Do(`SELECT a FROM t WHERE a = 1`); err != nil {
		t.Fatal(err)
	}
	second := dialPipeline(t, client.New("alice", key), ln.Addr().String())
	done := make(chan error, 1)
	go func() {
		_, err := second.Do(`SELECT a FROM t`)
		done <- err
	}()
	select {
	case err := <-done:
		var se *client.ServerError
		if !errors.Is(err, portal.ErrReplayedQID) || !errors.As(err, &se) {
			t.Fatalf("call under a spent qid returned %v, want a ServerError wrapping portal.ErrReplayedQID", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call under a spent qid still waiting after 5s")
	}
	// The next qid was never spent: the same pipeline serves it.
	if resp, err := second.Do(`SELECT a FROM t`); err != nil || len(resp.Rows) != 1 {
		t.Fatalf("call under a fresh qid: %v %+v", err, resp)
	}
}

// TestPipelineSurfacesCapacityRefusal: the server's connection-capacity
// refusal is a TError addressed to qid 0; the pipeline surfaces its text
// instead of a bare EOF.
func TestPipelineSurfacesCapacityRefusal(t *testing.T) {
	db, err := veridb.Open(veridb.Config{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := []byte("cap-pipe")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)

	ln := startServer(t, db, server.Config{MaxConns: 1})

	// Occupy the only connection slot.
	holder, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := wire.WriteFrame(holder, wire.Frame{Type: wire.THealth, QID: 1}); err != nil {
		t.Fatal(err)
	}
	// Wait until the holder is being served (its health response arrives).
	if _, err := wire.ReadFrame(holder, 0); err != nil {
		t.Fatalf("holder connection not serving: %v", err)
	}

	p := dialPipeline(t, alice, ln.Addr().String())
	_, derr := p.Do(`SELECT 1`)
	if derr == nil {
		t.Fatal("call over refused connection succeeded")
	}
	if !errors.Is(derr, client.ErrPipelineClosed) || !strings.Contains(derr.Error(), "capacity") {
		t.Fatalf("refusal surfaced as %v", derr)
	}
	// Later calls fail fast rather than hanging on a dead window.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := p.Do(`SELECT 1`); err == nil {
			t.Error("call on dead pipeline succeeded")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("call on dead pipeline hung")
	}
}

// TestPipelineServerVanishesMidFlight: the peer dying mid-pipeline fails
// every in-flight call with ErrPipelineClosed instead of stranding
// waiters.
func TestPipelineServerVanishesMidFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()

	alice := client.New("alice", []byte("k"))
	p := dialPipeline(t, alice, ln.Addr().String())
	calls := []*client.Call{p.Go(`SELECT 1`), p.Go(`SELECT 2`)}

	conn := <-accepted
	buf := make([]byte, 256)
	conn.Read(buf) // absorb some frames, then vanish
	conn.Close()

	for i, call := range calls {
		if _, err := call.Wait(); !errors.Is(err, client.ErrPipelineClosed) {
			t.Fatalf("call %d: want ErrPipelineClosed, got %v", i, err)
		}
	}
}

// TestPipelineSurfacesConnectionRefusal: a TError addressed to qid 0 is the
// server refusing the connection itself — here the refusals it sends for a
// protocol version it does not speak and for bytes that are not a frame —
// just before it closes. The refusal's text must reach the call in flight
// and every later call, wrapped in ErrPipelineClosed; dropping it (no call
// has qid 0) leaves the caller with nothing but "read: EOF". The refusal
// frame races the close; `make flake` repeats this test.
func TestPipelineSurfacesConnectionRefusal(t *testing.T) {
	for name, refusal := range map[string]string{
		"version": "wire: unsupported protocol version: peer speaks v2, this build speaks v1",
		"magic":   "wire: bad frame magic: 0x7b 0x22",
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				// Absorb the first request, refuse the connection, vanish.
				if _, err := wire.ReadFrame(conn, 0); err != nil {
					return
				}
				wire.WriteFrame(conn, wire.Frame{Type: wire.TError, QID: 0, Payload: []byte(refusal)})
			}()

			alice := client.New("alice", []byte("k"))
			p := dialPipeline(t, alice, ln.Addr().String())
			for _, when := range []string{"in-flight", "later"} {
				_, err := p.Do(`SELECT 1`)
				if !errors.Is(err, client.ErrPipelineClosed) || !strings.Contains(err.Error(), refusal) {
					t.Fatalf("%s call: want ErrPipelineClosed carrying %q, got %v", when, refusal, err)
				}
			}
		})
	}
}

// TestPipelineRejectsMismatchedFrameType: the frame type byte is outside
// every MAC, so a peer can relabel a health document onto a query's qid.
// The call must fail — never complete with a nil response and a nil error.
func TestPipelineRejectsMismatchedFrameType(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		f, err := wire.ReadFrame(conn, 0)
		if err != nil {
			return
		}
		wire.WriteFrame(conn, wire.Frame{Type: wire.THealthInfo, QID: f.QID, Payload: []byte("{}")})
		wire.ReadFrame(conn, 0) // hold the connection until the client closes it
	}()

	alice := client.New("alice", []byte("k"))
	p := dialPipeline(t, alice, ln.Addr().String())
	resp, err := p.Do(`SELECT 1`)
	if err == nil || resp != nil || !strings.Contains(err.Error(), "health-info") {
		t.Fatalf("query answered by a health frame returned (%+v, %v)", resp, err)
	}
}

// TestPipelineThroughChaosConn drives a pipeline at the real server through
// a network that duplicates every second response write, stalls every
// third for longer than the retransmission deadline (so calls retransmit under their old
// qid while the answer is stuck in the stall), and finally drops the
// connection. Every completed call must be verified and executed at most
// once — the inserts would collide on their primary key otherwise, and the
// row count is checked server-side — no benign duplicate may read as a
// rollback, the drop must fail every call in flight with ErrPipelineClosed
// wrapping its cause, and no goroutine may outlive the pipelines.
func TestPipelineThroughChaosConn(t *testing.T) {
	db, err := veridb.Open(veridb.Config{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT PRIMARY KEY, b INT)`); err != nil {
		t.Fatal(err)
	}
	key := []byte("chaos-pipe")
	db.ProvisionClient("alice", key)
	alice := client.New("alice", key)
	rows := func() int {
		res, err := db.Exec(`SELECT a FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}

	flaky := startFlakyServer(t, db, server.Config{}, chaos.WireConfig{
		DuplicateEveryWrites: 2,
		DelayEveryWrites:     3,
		Delay:                30 * time.Millisecond,
	})
	dropping := startFlakyServer(t, db, server.Config{}, chaos.WireConfig{DropAfterWrites: 3})
	baseline := runtime.NumGoroutine()

	// Duplicates and stalls: everything completes, once.
	p := dialWith(t, alice, flaky.Addr().String(), 4, 10*time.Millisecond, 500, 5*time.Millisecond)
	const n = 60
	calls := make([]*client.Call, n)
	for i := range calls {
		calls[i] = p.Go(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i))
	}
	retransmitted := 0
	for i, call := range calls {
		if _, err := call.Wait(); err != nil {
			t.Fatalf("insert %d through duplicates and stalls: %v", i, err)
		}
		retransmitted += call.Attempts()
	}
	if retransmitted == 0 {
		t.Fatal("no call retransmitted — the stall never outlasted the deadline, the test exercised nothing")
	}
	if got := rows(); got != n {
		t.Fatalf("%d rows after %d acknowledged inserts", got, n)
	}
	var tracked uint64
	for _, iv := range alice.Tracker().Intervals() {
		tracked += iv[1] - iv[0] + 1
	}
	if tracked != n {
		t.Fatalf("tracker holds %d sequence numbers for %d responses", tracked, n)
	}
	p.Close()

	// The drop: the connection dies after the server's third write.
	// A window of 4, no retransmission, the shipped overload retries.
	p2 := dialWith(t, alice, dropping.Addr().String(), 4, 0, 3, 5*time.Millisecond)
	dropped := make([]*client.Call, 40)
	for i := range dropped {
		dropped[i] = p2.Go(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, n+i, n+i))
	}
	completed, failed := 0, 0
	for i, call := range dropped {
		_, err := call.Wait()
		switch {
		case err == nil:
			completed++
		case errors.Is(err, client.ErrPipelineClosed) && (strings.Contains(err.Error(), "read: ") || strings.Contains(err.Error(), "write: ")):
			failed++
		default:
			t.Fatalf("insert %d failed with %v, want ErrPipelineClosed wrapping the transport error", n+i, err)
		}
	}
	if failed == 0 {
		t.Fatal("the connection never dropped")
	}
	// A failed insert may or may not have executed before the drop (at most
	// a window of them were on the wire); the completed ones did, once each.
	// A read sees an acknowledged insert only once every earlier-sequenced
	// statement has finished too (reads pin the commit watermark), and the
	// dropped connection's handlers may still be finishing — so wait for the
	// count instead of reading it once.
	got := rows()
	for deadline := time.Now().Add(5 * time.Second); got < n+completed && time.Now().Before(deadline); got = rows() {
		time.Sleep(time.Millisecond)
	}
	if got < n+completed || got > n+completed+4 {
		t.Fatalf("%d rows, want %d to %d", got, n+completed, n+completed+4)
	}
	if _, err := p2.Do(`SELECT a FROM t WHERE a = 1`); !errors.Is(err, client.ErrPipelineClosed) {
		t.Fatalf("call after the drop: %v", err)
	}
	p2.Close()

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the pipelines:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkPipelineWindow sweeps the in-flight window of one pipelined
// connection over a link whose every server write stalls 500 µs — the
// chaos conn's delay standing in for a cross-rack round trip, without
// which loopback collapses every window to the shared CPU cost. Window 1
// is the serial exchange; a deeper window shares one stall among every
// response a burst flushes. The pipeline MAC-verifies every response, and
// after the sweep the server must drain with no goroutine left behind.
func BenchmarkPipelineWindow(b *testing.B) {
	baseline := runtime.NumGoroutine()
	db, err := veridb.Open(veridb.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const rows = 2000
	seedBig(b, db, rows)
	key := []byte("window-bench")
	db.ProvisionClient("bench", key)
	c := client.New("bench", key)
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(chaos.WrapListener(ln, chaos.WireConfig{DelayEveryWrites: 1, Delay: 500 * time.Microsecond}))

	for _, window := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("inflight=%d", window), func(b *testing.B) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			p := client.NewPipelineWith(c, conn, window, 0, 3, 5*time.Millisecond)
			defer p.Close()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < window; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := next.Add(1); k <= int64(b.N); k = next.Add(1) {
						resp, err := p.Do(fmt.Sprintf(`SELECT b FROM big WHERE a = %d`, k%rows))
						if err == nil && len(resp.Rows) != 1 {
							err = fmt.Errorf("point query returned %d rows", len(resp.Rows))
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
	}

	ln.Close()
	if !srv.Drain(10 * time.Second) {
		b.Fatal("server did not drain after the sweep")
	}
	db.Close()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i >= 500 {
			b.Fatalf("goroutines %d after drain, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
