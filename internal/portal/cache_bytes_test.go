package portal

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/govern"
	"veridb/internal/record"
)

// wideExec returns a response of roughly width bytes for any query, so
// tests can fill the byte-bounded response cache quickly.
type wideExec struct {
	healthy
	width int
}

func (e *wideExec) ExecuteContext(context.Context, string, string) (*Result, error) {
	return &Result{
		Columns: []string{"payload"},
		Rows:    []record.Tuple{{record.Text(strings.Repeat("x", e.width))}},
	}, nil
}

// setCacheBound moves the response cache's byte bound, evicting
// oldest-first down to it at once.
func setCacheBound(p *Portal, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cacheMax = n
	p.evictOverBytesLocked()
}

func serveOK(t *testing.T, p *Portal, key []byte, qid uint64) *Response {
	t.Helper()
	req := Request{ClientID: "alice", QID: qid, Query: "SELECT 1"}
	req.MAC = SignRequest(key, req.ClientID, req.QID, req.Query)
	resp, err := p.Serve(req)
	if err != nil {
		t.Fatalf("qid %d: %v", qid, err)
	}
	return resp
}

// TestResponseCacheByteBound: the response cache never holds more than the
// configured byte budget — oldest endorsements are evicted first, the
// eviction counter advances, and a replay of an evicted qid is refused
// while a still-cached qid replays fine.
func TestResponseCacheByteBound(t *testing.T) {
	p, key := newPortal(t, &wideExec{width: 1024})
	setCacheBound(p, 4096)
	const n = 20
	for qid := uint64(1); qid <= n; qid++ {
		serveOK(t, p, key, qid)
	}
	st := p.CacheStats()
	if st.Bytes > 4096 {
		t.Fatalf("cache holds %d bytes past the 4096 bound", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
	if st.Entries >= n {
		t.Fatalf("all %d entries retained under a bound that fits ~3", n)
	}
	// Oldest-first: qid 1 is gone, the newest qid is still cached.
	old := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	old.MAC = SignRequest(key, old.ClientID, old.QID, old.Query)
	if _, err := p.Serve(old); !errors.Is(err, ErrReplayedQID) {
		t.Fatalf("evicted replay served: %v", err)
	}
	fresh := Request{ClientID: "alice", QID: n, Query: "SELECT 1"}
	fresh.MAC = SignRequest(key, fresh.ClientID, fresh.QID, fresh.Query)
	if _, err := p.Serve(fresh); err != nil {
		t.Fatalf("cached replay rejected: %v", err)
	}
}

// TestResponseCacheChargesBudget: every cached byte is charged to the
// process budget and released on eviction, so the cache's footprint is
// visible to (and bounded with) the rest of the memory governor.
func TestResponseCacheChargesBudget(t *testing.T) {
	p, key := newPortal(t, &wideExec{width: 512})
	b := govern.NewBudget(0) // track-only
	p.SetBudget(b)
	for qid := uint64(1); qid <= 8; qid++ {
		serveOK(t, p, key, qid)
	}
	if used, cached := b.Used(), p.CacheStats().Bytes; used != cached {
		t.Fatalf("budget used %d != cached bytes %d", used, cached)
	}
	// Shrinking the bound evicts immediately and releases the charges.
	setCacheBound(p, 1024)
	st := p.CacheStats()
	if st.Bytes > 1024 {
		t.Fatalf("cache holds %d bytes after shrink to 1024", st.Bytes)
	}
	if used := b.Used(); used != st.Bytes {
		t.Fatalf("budget used %d != cached bytes %d after shrink", used, st.Bytes)
	}
}

// TestSignRequestTimeoutZeroCompat: a zero timeout folds nothing extra
// into the MAC — byte-identical to the legacy SignRequest, so old clients
// and new portals interoperate.
func TestSignRequestTimeoutZeroCompat(t *testing.T) {
	key := []byte("shared")
	legacy := SignRequest(key, "alice", 7, "SELECT 1")
	zero := SignRequestTimeout(key, "alice", 7, "SELECT 1", 0)
	if !bytes.Equal(legacy, zero) {
		t.Fatal("zero-timeout MAC differs from legacy SignRequest")
	}
	if with := SignRequestTimeout(key, "alice", 7, "SELECT 1", 250); bytes.Equal(with, legacy) {
		t.Fatal("timeout not folded into the MAC")
	}
}

// ctxExec records the context the portal dispatched with.
type ctxExec struct {
	echoExec
	deadline bool
}

func (e *ctxExec) ExecuteContext(ctx context.Context, clientID, query string) (*Result, error) {
	_, e.deadline = ctx.Deadline()
	return e.echoExec.ExecuteContext(ctx, clientID, query)
}

// TestTimeoutIsAuthenticatedAndDispatched: the per-request timeout is
// covered by the request MAC (a relay cannot stretch or strip it), and a
// nonzero timeout reaches the executor as a real context deadline.
func TestTimeoutIsAuthenticatedAndDispatched(t *testing.T) {
	ex := &ctxExec{}
	p, key := newPortal(t, ex)
	req := Request{ClientID: "alice", QID: 3, Query: "SELECT 1", TimeoutMS: 50}
	req.MAC = SignRequestTimeout(key, req.ClientID, req.QID, req.Query, req.TimeoutMS)
	// Tampered timeout → MAC reject, never executed.
	forged := req
	forged.TimeoutMS = 5000
	if _, err := p.Serve(forged); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("stretched timeout accepted: %v", err)
	}
	start := time.Now()
	if _, err := p.Serve(req); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("dispatch stalled")
	}
	if !ex.deadline {
		t.Fatal("executor context carried no deadline for TimeoutMS=50")
	}
}

// TestReplayStateStaysBounded: the per-client replay set and the global
// eviction order must not grow with the number of statements served. Two
// clients push 100 000 statements between them, each in pipelined windows
// whose qids reach the portal out of order; afterwards each client's
// served-qid set is one interval (never more than a window's worth on the
// way), and the eviction order is within a constant factor of the live
// cache — on this traffic the byte bound never binds, which is exactly when
// the order list used to grow by one ref per statement.
func TestReplayStateStaysBounded(t *testing.T) {
	enc := enclave.NewForTest(3)
	keys := map[string][]byte{"alice": []byte("ka"), "bob": []byte("kb")}
	for id, key := range keys {
		enc.ProvisionMACKey(id, key)
	}
	p := New(enc, &echoExec{})

	const perClient, window = 50_000, 16
	serve := func(id string, qid uint64) {
		req := Request{ClientID: id, QID: qid, Query: "SELECT 1"}
		req.MAC = SignRequest(keys[id], id, qid, req.Query)
		if _, err := p.Serve(req); err != nil {
			t.Fatalf("%s qid %d: %v", id, qid, err)
		}
	}
	for base := uint64(1); base <= perClient; base += window {
		for id := range keys {
			// Highest qid of the window first: the worst arrival order.
			for qid := base + window - 1; qid >= base; qid-- {
				serve(id, qid)
				if n := p.clients[id].seen.Len(); n > window {
					t.Fatalf("%s: %d qid intervals with a window of %d", id, n, window)
				}
			}
		}
	}

	for id := range keys {
		if n := p.clients[id].seen.Len(); n != 1 {
			t.Fatalf("%s: %d qid intervals after %d consecutive qids, want 1", id, n, perClient)
		}
	}
	st := p.CacheStats()
	if st.Entries != 2*responseCacheSize {
		t.Fatalf("cache holds %d entries, want the per-client cap for both clients (%d)", st.Entries, 2*responseCacheSize)
	}
	if n, max := len(p.cacheOrder), 2*st.Entries+cacheOrderSlack+1; n > max {
		t.Fatalf("eviction order holds %d refs for %d live entries (bound %d)", n, st.Entries, max)
	}

	// The replay contract is unchanged by the new bookkeeping: a recent qid
	// replays its cached endorsement, an old one is refused, and shrinking
	// the byte bound still evicts oldest-first through the compacted order.
	recent := Request{ClientID: "alice", QID: perClient, Query: "SELECT 1"}
	recent.MAC = SignRequest(keys["alice"], "alice", recent.QID, recent.Query)
	if _, err := p.Serve(recent); err != nil {
		t.Fatalf("cached replay rejected: %v", err)
	}
	old := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	old.MAC = SignRequest(keys["alice"], "alice", old.QID, old.Query)
	if _, err := p.Serve(old); !errors.Is(err, ErrReplayedQID) {
		t.Fatalf("evicted replay served: %v", err)
	}
	setCacheBound(p, 1)
	if st := p.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("byte bound of 1 left %+v", st)
	}
}
