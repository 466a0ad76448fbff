package portal

// Concurrency audit for the pipelined wire path: the binary protocol puts
// many requests from ONE connection in flight through Serve at once, so
// the portal must sequence, execute, endorse and cache them concurrently
// — distinct qids each executing exactly once with distinct sequence
// numbers, and a replayed qid never executing twice no matter how many
// copies race.

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"veridb/internal/record"
)

// countingExec counts executions and can block until released, to hold
// many Serve calls in the execution window at once.
type countingExec struct {
	healthy
	calls atomic.Int64
	gate  chan struct{} // non-nil: ExecuteContext blocks until closed
}

func (e *countingExec) ExecuteContext(_ context.Context, _, query string) (*Result, error) {
	e.calls.Add(1)
	if e.gate != nil {
		<-e.gate
	}
	return &Result{Columns: []string{"q"}, Rows: []record.Tuple{{record.Text(query)}}}, nil
}

// TestServeConcurrentDistinctQIDs drives many Serve calls in parallel for
// one client: every response MAC-verifies, every sequence number is
// distinct, and the executor ran exactly once per request.
func TestServeConcurrentDistinctQIDs(t *testing.T) {
	exec := &countingExec{}
	p, key := newPortal(t, exec)

	const n = 64
	resps := make([]*Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qid := uint64(i + 1)
			req := Request{ClientID: "alice", QID: qid, Query: "SELECT 1"}
			req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
			resps[i], errs[i] = p.Serve(req)
		}(i)
	}
	wg.Wait()

	seqs := make(map[uint64]bool, n)
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if resp.ErrMsg != "" {
			t.Fatalf("request %d: %+v", i, resp)
		}
		if !bytes.Equal(resp.MAC, SignResponse(key, resp)) {
			t.Fatalf("request %d: response MAC does not verify", i)
		}
		if seqs[resp.Seq] {
			t.Fatalf("sequence number %d issued twice", resp.Seq)
		}
		seqs[resp.Seq] = true
	}
	if got := exec.calls.Load(); got != n {
		t.Fatalf("executor ran %d times for %d requests", got, n)
	}
}

// TestServeConcurrentSameQIDExecutesOnce races many copies of ONE request
// (same qid, same MAC — a pipelined client retransmitting) while the
// first execution is parked inside the executor: exactly one copy
// executes; the rest are rejected with ErrReplayedQID while it is in
// flight, and replayed from the cache (bit-identical endorsement) after
// it completes.
func TestServeConcurrentSameQIDExecutesOnce(t *testing.T) {
	exec := &countingExec{gate: make(chan struct{})}
	p, key := newPortal(t, exec)

	req := Request{ClientID: "alice", QID: 7, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)

	first := make(chan *Response, 1)
	go func() {
		resp, err := p.Serve(req)
		if err != nil {
			t.Errorf("original request failed: %v", err)
		}
		first <- resp
	}()
	// Wait until the original is parked inside Execute.
	for exec.calls.Load() == 0 {
		runtime.Gosched()
	}

	// Racing copies while the original is in flight: rejected, not re-run.
	const racers = 16
	var wg sync.WaitGroup
	var replays atomic.Int64
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Serve(req); err != nil {
				replays.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := replays.Load(); got != racers {
		t.Fatalf("%d of %d in-flight replays were not rejected", racers-got, racers)
	}

	close(exec.gate)
	orig := <-first

	// After completion the cached endorsement replays bit-identically.
	cached, err := p.Serve(req)
	if err != nil {
		t.Fatalf("post-completion replay: %v", err)
	}
	if cached.Seq != orig.Seq || !bytes.Equal(cached.MAC, orig.MAC) {
		t.Fatalf("cached replay differs: %+v vs %+v", cached, orig)
	}
	if got := exec.calls.Load(); got != 1 {
		t.Fatalf("executor ran %d times for one qid", got)
	}
}
