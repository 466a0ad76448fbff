package portal

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/record"
)

// healthy is the QuarantineError half of Executor for stubs that are never
// fenced; each stub embeds it and supplies ExecuteContext.
type healthy struct{}

func (healthy) QuarantineError() error { return nil }

// echoExec returns a fixed row for any query.
type echoExec struct {
	healthy
	fail bool
}

func (e *echoExec) ExecuteContext(_ context.Context, _, query string) (*Result, error) {
	if e.fail {
		return nil, errors.New("boom")
	}
	return &Result{
		Columns: []string{"q"},
		Rows:    []record.Tuple{{record.Text(query)}},
	}, nil
}

func newPortal(t *testing.T, exec Executor) (*Portal, []byte) {
	t.Helper()
	enc := enclave.NewForTest(3)
	key := []byte("shared")
	enc.ProvisionMACKey("alice", key)
	return New(enc, exec), key
}

func TestServeHappyPath(t *testing.T) {
	p, key := newPortal(t, &echoExec{})
	req := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	resp, err := p.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.QID != 1 || len(resp.Rows) != 1 {
		t.Fatalf("resp %+v", resp)
	}
	if !bytes.Equal(resp.MAC, SignResponse(key, resp)) {
		t.Fatal("response MAC does not verify")
	}
}

func TestServeRejectsBadMACAndUnknownClient(t *testing.T) {
	p, key := newPortal(t, &echoExec{})
	req := Request{ClientID: "alice", QID: 1, Query: "SELECT 1", MAC: []byte("junk")}
	if _, err := p.Serve(req); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bad MAC served: %v", err)
	}
	req = Request{ClientID: "nobody", QID: 1, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	if _, err := p.Serve(req); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown client served: %v", err)
	}
}

// TestReplayReturnsCachedResponse: a replayed qid whose response is still
// cached returns the identical original endorsement (retry idempotence) —
// it is never re-executed, and the seq counter does not advance.
func TestReplayReturnsCachedResponse(t *testing.T) {
	p, key := newPortal(t, &echoExec{})
	req := Request{ClientID: "alice", QID: 9, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	first, err := p.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.Serve(req)
	if err != nil {
		t.Fatalf("cached retry rejected: %v", err)
	}
	if again != first {
		t.Fatalf("retry re-executed: %+v vs %+v", again, first)
	}
	if got := p.Seq(); got != first.Seq {
		t.Fatalf("retry advanced seq to %d", got)
	}
}

// TestReusedQIDIsNotAnsweredFromCache: a second session under the same
// client id and key restarts its qids at 1. Its qid-1 request is another
// statement, so it must get a typed refusal, not the first session's
// qid-1 endorsement (MAC-valid, and seq-fresh to the new session's empty
// tracker). The first session's retransmit is still served from cache.
func TestReusedQIDIsNotAnsweredFromCache(t *testing.T) {
	p, key := newPortal(t, &echoExec{})
	first := Request{ClientID: "alice", QID: 1, Query: "SELECT a"}
	first.MAC = SignRequest(key, first.ClientID, first.QID, first.Query)
	endorsed, err := p.Serve(first)
	if err != nil {
		t.Fatal(err)
	}
	second := Request{ClientID: "alice", QID: 1, Query: "SELECT b"}
	second.MAC = SignRequest(key, second.ClientID, second.QID, second.Query)
	if resp, err := p.Serve(second); !errors.Is(err, ErrReplayedQID) {
		t.Fatalf("request %q under a used qid served %v (%v), want ErrReplayedQID", second.Query, resp, err)
	}
	if again, err := p.Serve(first); err != nil || again != endorsed {
		t.Fatalf("retransmit of the original request: %v, %v", again, err)
	}
}

// TestEvictedReplayRejected: once the original response falls out of the
// bounded cache, a replayed qid is rejected (at-most-once execution).
func TestEvictedReplayRejected(t *testing.T) {
	p, key := newPortal(t, &echoExec{})
	req := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	if _, err := p.Serve(req); err != nil {
		t.Fatal(err)
	}
	// Push qid 1 out of the FIFO cache.
	for i := 0; i < responseCacheSize; i++ {
		qid := uint64(i + 2)
		r := Request{ClientID: "alice", QID: qid, Query: "SELECT 1"}
		r.MAC = SignRequest(key, r.ClientID, r.QID, r.Query)
		if _, err := p.Serve(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Serve(req); !errors.Is(err, ErrReplayedQID) {
		t.Fatalf("evicted replay served: %v", err)
	}
}

// quarantineExec reports a sticky compromise through QuarantineError;
// ExecuteContext must never be reached once it trips.
type quarantineExec struct {
	echoExec
	qerr error
}

func (q *quarantineExec) QuarantineError() error { return q.qerr }

// TestQuarantinedResponsesAreAuthenticated: a fenced executor yields a
// MACed response with the Quarantined flag folded into the digest, so a
// client can tell an honest quarantine from a forged one.
func TestQuarantinedResponsesAreAuthenticated(t *testing.T) {
	exec := &quarantineExec{qerr: errors.New("tamper alarm")}
	p, key := newPortal(t, exec)
	req := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	resp, err := p.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Quarantined || resp.ErrMsg != "tamper alarm" || len(resp.Rows) != 0 {
		t.Fatalf("resp %+v", resp)
	}
	if !bytes.Equal(resp.MAC, SignResponse(key, resp)) {
		t.Fatal("quarantine response MAC does not verify")
	}
	// Stripping the flag must break the MAC: the flag is part of the digest.
	stripped := *resp
	stripped.Quarantined = false
	if bytes.Equal(SignResponse(key, &stripped), resp.MAC) {
		t.Fatal("Quarantined flag not covered by the response MAC")
	}
	// A clean executor keeps serving normally through the same path.
	exec.qerr = nil
	req2 := Request{ClientID: "alice", QID: 2, Query: "SELECT 2"}
	req2.MAC = SignRequest(key, req2.ClientID, req2.QID, req2.Query)
	resp2, err := p.Serve(req2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Quarantined || len(resp2.Rows) != 1 {
		t.Fatalf("clean executor resp %+v", resp2)
	}
}

func TestExecutionErrorsAreSequencedAndMACed(t *testing.T) {
	p, key := newPortal(t, &echoExec{fail: true})
	req := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	resp, err := p.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ErrMsg != "boom" || resp.Seq == 0 {
		t.Fatalf("resp %+v", resp)
	}
	if !bytes.Equal(resp.MAC, SignResponse(key, resp)) {
		t.Fatal("error response MAC invalid")
	}
}

func TestSequenceStrictlyIncreasesUnderConcurrency(t *testing.T) {
	p, key := newPortal(t, &echoExec{})
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{ClientID: "alice", QID: uint64(i + 1), Query: "SELECT 1"}
			req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
			resp, err := p.Serve(req)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if seen[resp.Seq] {
				t.Errorf("sequence %d issued twice", resp.Seq)
			}
			seen[resp.Seq] = true
			mu.Unlock()
		}(i)
	}
	wg.Wait()
}

func TestResumeAt(t *testing.T) {
	p, key := newPortal(t, &echoExec{})
	p.ResumeAt(1000)
	req := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	resp, err := p.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1001 {
		t.Fatalf("Seq = %d after ResumeAt(1000)", resp.Seq)
	}
	p.ResumeAt(5) // lower floor is a no-op
	resp2, _ := p.Serve(Request{ClientID: "alice", QID: 2, Query: "SELECT 1",
		MAC: SignRequest(key, "alice", 2, "SELECT 1")})
	if resp2.Seq != 1002 {
		t.Fatalf("Seq = %d, floor lowered the counter", resp2.Seq)
	}
}

func TestResponseDigestSensitivity(t *testing.T) {
	base := &Response{QID: 1, Seq: 2, Columns: []string{"a"},
		Rows: []record.Tuple{{record.Int(1)}}}
	d1 := ResponseDigest(base)
	variants := []*Response{
		{QID: 2, Seq: 2, Columns: []string{"a"}, Rows: base.Rows},
		{QID: 1, Seq: 3, Columns: []string{"a"}, Rows: base.Rows},
		{QID: 1, Seq: 2, Columns: []string{"b"}, Rows: base.Rows},
		{QID: 1, Seq: 2, Columns: []string{"a"}, Rows: []record.Tuple{{record.Int(2)}}},
		{QID: 1, Seq: 2, Columns: []string{"a"}, Rows: base.Rows, ErrMsg: "x"},
		{QID: 1, Seq: 2, Columns: []string{"a"}, Rows: base.Rows, Affected: 1},
	}
	for i, v := range variants {
		if bytes.Equal(d1, ResponseDigest(v)) {
			t.Fatalf("variant %d has identical digest", i)
		}
	}
	if !bytes.Equal(d1, ResponseDigest(base)) {
		t.Fatal("digest not deterministic")
	}
}

// lateQuarantineExec models an alarm that lands between the portal's fence
// check and execution: the first QuarantineError call is clean,
// ExecuteContext then fails the way core.DB does once fenced, and every later
// QuarantineError call reports the compromise.
type lateQuarantineExec struct {
	qerr   error
	checks int
}

func (q *lateQuarantineExec) QuarantineError() error {
	if q.checks++; q.checks == 1 {
		return nil
	}
	return q.qerr
}

func (q *lateQuarantineExec) ExecuteContext(context.Context, string, string) (*Result, error) {
	return nil, q.qerr
}

// TestQuarantineRaisedDuringExecutionIsFlagged: a statement that fails
// because the database was fenced under it must come back as an
// authenticated quarantine response, not as an ordinary statement error
// the client would take for a healthy instance's answer.
func TestQuarantineRaisedDuringExecutionIsFlagged(t *testing.T) {
	exec := &lateQuarantineExec{qerr: errors.New("tamper alarm")}
	p, key := newPortal(t, exec)
	req := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	resp, err := p.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if exec.checks != 2 {
		t.Fatalf("QuarantineError consulted %d times, want before and after execution", exec.checks)
	}
	if !resp.Quarantined || resp.ErrMsg != "tamper alarm" {
		t.Fatalf("resp %+v", resp)
	}
	if !bytes.Equal(resp.MAC, SignResponse(key, resp)) {
		t.Fatal("quarantine response MAC does not verify")
	}
}
