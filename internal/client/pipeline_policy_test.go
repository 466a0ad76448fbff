package client

// The retry policy, tested against a scripted peer: a goroutine that reads
// request frames off one loopback connection and answers each however the
// test says — through a real portal, twice, never, or with a forged MAC.
// The tests against the real server stack are in pipeline_test.go.

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/govern"
	"veridb/internal/portal"
	"veridb/internal/wire"
)

// healthy is the QuarantineError half of portal.Executor for stubs that
// are never fenced; each stub embeds it and supplies ExecuteContext.
type healthy struct{}

func (healthy) QuarantineError() error { return nil }

// countExec counts executions so tests can pin at-most-once semantics.
type countExec struct {
	healthy
	n int
}

func (e *countExec) ExecuteContext(context.Context, string, string) (*portal.Result, error) {
	e.n++
	return &portal.Result{Columns: []string{"q"}}, nil
}

// shedExec refuses the first sheds executions with a typed overload
// refusal, then serves normally.
type shedExec struct {
	healthy
	sheds int
	calls int
}

func (e *shedExec) ExecuteContext(context.Context, string, string) (*portal.Result, error) {
	e.calls++
	if e.calls <= e.sheds {
		return nil, &govern.OverloadedError{RetryAfter: 25 * time.Millisecond}
	}
	return &portal.Result{Columns: []string{"q"}}, nil
}

type quarantinedExec struct{ err error }

func (e *quarantinedExec) ExecuteContext(context.Context, string, string) (*portal.Result, error) {
	return &portal.Result{}, nil
}
func (e *quarantinedExec) QuarantineError() error { return e.err }

func newClientPortal(t *testing.T, exec portal.Executor) (*Client, *portal.Portal, []byte) {
	t.Helper()
	enc := enclave.NewForTest(11)
	key := []byte("shared-key")
	enc.ProvisionMACKey("alice", key)
	return New("alice", key), portal.New(enc, exec), key
}

// scriptedPeer accepts one connection, hands every frame it reads to
// handle (one at a time, in arrival order) and returns a pipeline dialled
// to it. The returned func reports the qid of every frame received so far.
func scriptedPeer(t *testing.T, c *Client, pol policy, handle func(conn net.Conn, f wire.Frame)) (*Pipeline, func() []uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var qids []uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			f, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			mu.Lock()
			qids = append(qids, f.QID)
			mu.Unlock()
			handle(conn, f)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeline(c, conn, pol)
	t.Cleanup(func() { p.Close(); ln.Close(); <-done })
	return p, func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), qids...)
	}
}

// tracked counts the sequence numbers the client's tracker holds.
func tracked(c *Client) uint64 {
	var n uint64
	for _, iv := range c.Tracker().Intervals() {
		n += iv[1] - iv[0] + 1
	}
	return n
}

// resultFor runs one query frame through the portal and returns the frame
// that answers it.
func resultFor(t *testing.T, p *portal.Portal, f wire.Frame) wire.Frame {
	req, err := wire.DecodeQuery(f.QID, f.Payload)
	if err != nil {
		t.Errorf("peer: decoding query %d: %v", f.QID, err)
		return wire.Frame{Type: wire.TError, QID: f.QID, Payload: []byte(err.Error())}
	}
	resp, err := p.Serve(req)
	if err != nil {
		return wire.Frame{Type: wire.TError, QID: f.QID, Payload: []byte(err.Error())}
	}
	return wire.Frame{Type: wire.TResult, QID: f.QID, Payload: wire.EncodeResult(resp)}
}

// TestRetryDelaySchedule pins the one place a retry delay is computed: the
// backoff doubles per attempt made, a larger RetryAfter hint wins, one
// second caps both, and the jitter adds between nothing and half the delay.
func TestRetryDelaySchedule(t *testing.T) {
	const ms = time.Millisecond
	none := func(int64) int64 { return 0 }
	most := func(n int64) int64 { return n - 1 }
	for _, tc := range []struct {
		name       string
		backoff    time.Duration
		attempts   int
		retryAfter time.Duration
		jitter     func(int64) int64
		want       time.Duration
	}{
		{"first retry waits the backoff", 10 * ms, 0, 0, none, 10 * ms},
		{"second doubles", 10 * ms, 1, 0, none, 20 * ms},
		{"third doubles again", 10 * ms, 2, 0, none, 40 * ms},
		{"a larger hint wins", 10 * ms, 1, 25 * ms, none, 25 * ms},
		{"a smaller hint loses", 10 * ms, 2, 25 * ms, none, 40 * ms},
		{"the backoff is capped at a second", 10 * ms, 9, 0, none, time.Second},
		{"so is the hint", 10 * ms, 0, time.Minute, none, time.Second},
		{"attempts past ten shift no further", ms, 40, 0, none, time.Second},
		{"least jitter adds nothing", 10 * ms, 1, 0, none, 20 * ms},
		{"most jitter adds half", 10 * ms, 1, 0, most, 30 * ms},
		{"jitter is on top of the cap", 10 * ms, 9, 0, most, 1500 * ms},
	} {
		if got := retryDelay(tc.backoff, tc.attempts, tc.retryAfter, tc.jitter); got != tc.want {
			t.Errorf("%s: retryDelay(%v, %d, %v) = %v, want %v", tc.name, tc.backoff, tc.attempts, tc.retryAfter, got, tc.want)
		}
	}
}

// TestPipelineRetransmitsLostResponse: the peer executes the request but
// loses the response; the retransmission (same qid, same MAC) draws the
// portal's cached endorsement and the query executes exactly once.
func TestPipelineRetransmitsLostResponse(t *testing.T) {
	exec := &countExec{}
	c, portal, _ := newClientPortal(t, exec)
	frames := 0
	p, seen := scriptedPeer(t, c, policy{window: 1, retryTimeout: 20 * time.Millisecond, retries: maxRetries, backoff: retryBackoff}, func(conn net.Conn, f wire.Frame) {
		frames++
		answer := resultFor(t, portal, f)
		if frames > 1 {
			wire.WriteFrame(conn, answer)
		}
	})
	call := p.Go("SELECT 1")
	resp, err := call.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq == 0 {
		t.Fatalf("resp %+v", resp)
	}
	if exec.n != 1 {
		t.Fatalf("query executed %d times — the retransmission was not idempotent", exec.n)
	}
	if qids := seen(); len(qids) != 2 || qids[0] != qids[1] || call.Attempts() != 1 {
		t.Fatalf("peer saw qids %v over %d extra attempts, want the same qid twice", qids, call.Attempts())
	}
}

// TestPipelineHungPeerTimesOut: a peer that reads and never answers
// exhausts the per-attempt deadline and the retry budget; the caller gets
// ErrTimeout after exactly retries+1 sends of the same qid.
func TestPipelineHungPeerTimesOut(t *testing.T) {
	c, _, _ := newClientPortal(t, &countExec{})
	p, seen := scriptedPeer(t, c, policy{window: 1, retryTimeout: 10 * time.Millisecond, retries: 2, backoff: retryBackoff},
		func(net.Conn, wire.Frame) {})
	_, err := p.Do("SELECT 1")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("hung peer returned %v, want ErrTimeout", err)
	}
	qids := seen()
	if len(qids) != 3 || qids[0] != qids[1] || qids[1] != qids[2] {
		t.Fatalf("peer saw qids %v, want one qid sent three times", qids)
	}
}

// TestPipelineNoRetriesSendsOnce: a policy of no retries. A hung peer
// costs one send and one deadline; a shed comes straight back.
func TestPipelineNoRetriesSendsOnce(t *testing.T) {
	c, _, _ := newClientPortal(t, &countExec{})
	p, seen := scriptedPeer(t, c, policy{window: 1, retryTimeout: 10 * time.Millisecond},
		func(net.Conn, wire.Frame) {})
	if _, err := p.Do("SELECT 1"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("hung peer returned %v, want ErrTimeout", err)
	}
	if qids := seen(); len(qids) != 1 {
		t.Fatalf("peer saw %d frames with no retries, want 1", len(qids))
	}

	exec := &shedExec{sheds: 1 << 30}
	c2, portal, _ := newClientPortal(t, exec)
	p2, _ := scriptedPeer(t, c2, policy{window: 1}, func(conn net.Conn, f wire.Frame) {
		wire.WriteFrame(conn, resultFor(t, portal, f))
	})
	if _, err := p2.Do("SELECT 1"); !errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("shed with no retries returned %v, want ErrOverloaded", err)
	}
	if exec.calls != 1 {
		t.Fatalf("executed %d times with no retries, want 1", exec.calls)
	}
}

// TestPipelineNeverRetriesForgedResponse: a MAC failure is evidence, not
// noise — the call must end at once instead of re-requesting.
func TestPipelineNeverRetriesForgedResponse(t *testing.T) {
	c, _, _ := newClientPortal(t, &countExec{})
	p, seen := scriptedPeer(t, c, policy{window: 1, retryTimeout: time.Second, retries: 5, backoff: retryBackoff}, func(conn net.Conn, f wire.Frame) {
		forged := &portal.Response{QID: f.QID, Seq: 1, MAC: []byte("forged")}
		wire.WriteFrame(conn, wire.Frame{Type: wire.TResult, QID: f.QID, Payload: wire.EncodeResult(forged)})
	})
	call := p.Go("SELECT 1")
	if _, err := call.Wait(); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("forged response returned %v, want ErrBadMAC", err)
	}
	if call.Attempts() != 0 || len(seen()) != 1 {
		t.Fatalf("forged response retried: %d extra attempts, %d frames", call.Attempts(), len(seen()))
	}
	if tracked(c) != 0 {
		t.Fatal("an unauthenticated sequence number reached the tracker")
	}
}

// TestPipelineSurfacesQuarantine: an authenticated quarantine response
// comes back as ErrQuarantined, at once, without retries, and its
// sequence number is not recorded (it dies with the fenced instance).
func TestPipelineSurfacesQuarantine(t *testing.T) {
	c, portal, _ := newClientPortal(t, &quarantinedExec{err: errors.New("tamper alarm: page 3")})
	p, seen := scriptedPeer(t, c, policy{window: 1, retryTimeout: time.Second, retries: 5, backoff: retryBackoff}, func(conn net.Conn, f wire.Frame) {
		wire.WriteFrame(conn, resultFor(t, portal, f))
	})
	call := p.Go("SELECT 1")
	resp, err := call.Wait()
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantine surfaced as %v", err)
	}
	if resp == nil || !resp.Quarantined {
		t.Fatalf("resp %+v", resp)
	}
	if call.Attempts() != 0 || len(seen()) != 1 {
		t.Fatalf("quarantine retried: %d extra attempts, %d frames", call.Attempts(), len(seen()))
	}
	if tracked(c) != 0 {
		t.Fatal("a quarantine response's sequence number was recorded")
	}
}

// TestPipelineGivesUpOverloadAfterBudget: a server that sheds every
// attempt exhausts the retry budget and the typed overload error reaches
// the caller; every attempt went out under a fresh qid (the refusal is
// cached under the old one, so reusing it would replay the refusal
// forever) and each refusal's sequence number was recorded once.
func TestPipelineGivesUpOverloadAfterBudget(t *testing.T) {
	exec := &shedExec{sheds: 1 << 30}
	c, portal, _ := newClientPortal(t, exec)
	p, seen := scriptedPeer(t, c, policy{window: 1, retries: 2, backoff: time.Millisecond}, func(conn net.Conn, f wire.Frame) {
		wire.WriteFrame(conn, resultFor(t, portal, f))
	})
	start := time.Now()
	call := p.Go("SELECT 1")
	_, err := call.Wait()
	if !errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded after the budget, got %v", err)
	}
	if exec.calls != 3 || call.Attempts() != 2 {
		t.Fatalf("executed %d times over %d extra attempts, want 3 and 2", exec.calls, call.Attempts())
	}
	qids := seen()
	if len(qids) != 3 || qids[0] == qids[1] || qids[1] == qids[2] || qids[0] == qids[2] {
		t.Fatalf("overload retries reused a qid: %v", qids)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Fatalf("two retries took %v, shorter than two 25ms RetryAfter hints", waited)
	}
	if n := tracked(c); n != 3 {
		t.Fatalf("tracker holds %d sequence numbers, want one per refusal", n)
	}
}

// TestPipelineDuplicateShedIsNotARollback: the network may duplicate a
// frame (§5.1 fn. 1), and a retransmission that crosses a shed draws the
// cached shed again. The second copy of a shed must drop like any other
// late duplicate: the shed is the response to its qid, so the call is no
// longer registered under it. Left registered until the backoff ran out,
// the copy went through VerifyResponse a second time, the tracker saw its
// sequence number repeat, and the caller was handed "rollback attack
// detected" — false evidence from a benign duplicate.
func TestPipelineDuplicateShedIsNotARollback(t *testing.T) {
	exec := &shedExec{sheds: 1}
	c, portal, _ := newClientPortal(t, exec)
	frames := 0
	p, seen := scriptedPeer(t, c, policy{window: 1, retries: maxRetries, backoff: time.Millisecond}, func(conn net.Conn, f wire.Frame) {
		frames++
		answer := resultFor(t, portal, f)
		wire.WriteFrame(conn, answer)
		if frames == 1 {
			wire.WriteFrame(conn, answer) // the shed, a second time
		}
	})
	call := p.Go("SELECT 1")
	resp, err := call.Wait()
	if err != nil {
		t.Fatalf("call behind a duplicated shed failed: %v", err)
	}
	if resp.ErrMsg != "" || call.Attempts() != 1 {
		t.Fatalf("resp %+v after %d extra attempts, want a clean result after one retry", resp, call.Attempts())
	}
	if qids := seen(); len(qids) != 2 || qids[0] == qids[1] {
		t.Fatalf("peer saw qids %v, want the shed qid and one fresh qid", qids)
	}
	// The shed and the result each carried one sequence number; each is in
	// the tracker once.
	if n := tracked(c); n != 2 {
		t.Fatalf("tracker holds %d sequence numbers, want 2", n)
	}
}

// TestPipelineStaleRetransmitTimerIsIgnored: a retransmission timer that
// fired while dispatch was accepting a shed runs after the reissue (Stop
// cannot recall it). It was armed for the dead qid, so it must do nothing:
// acted on, it sent the fresh-qid payload before the backoff and spent an
// attempt — or, with the budget already spent by the reissue, failed a
// call that had just been shed with ErrTimeout.
func TestPipelineStaleRetransmitTimerIsIgnored(t *testing.T) {
	exec := &shedExec{sheds: 1}
	c, portal, _ := newClientPortal(t, exec)
	pol := policy{window: 1, retryTimeout: time.Minute, retries: 1, backoff: time.Millisecond}
	p, seen := scriptedPeer(t, c, pol, func(conn net.Conn, f wire.Frame) {
		wire.WriteFrame(conn, resultFor(t, portal, f))
	})
	call := p.Go("SELECT 1")
	// Wait for the shed to be accepted, then play the parked timer.
	var shedQID uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if qids := seen(); len(qids) > 0 {
			shedQID = qids[0]
			p.mu.Lock()
			reissued := call.qid != shedQID
			p.mu.Unlock()
			if reissued {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the shed was never accepted")
		}
	}
	p.retransmit(call, shedQID)
	resp, err := call.Wait()
	if err != nil {
		t.Fatalf("call behind a stale retransmit timer failed: %v", err)
	}
	if resp.ErrMsg != "" || call.Attempts() != 1 {
		t.Fatalf("resp %+v after %d extra attempts, want a clean result after one retry", resp, call.Attempts())
	}
	if qids := seen(); len(qids) != 2 {
		t.Fatalf("peer saw qids %v, want the shed qid and one fresh qid", qids)
	}
}
