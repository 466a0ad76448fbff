package portal

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
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
	req.MAC = SignRequestTimeout(key, req.ClientID, req.QID, req.Query, 0)
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
	old.MAC = SignRequestTimeout(key, old.ClientID, old.QID, old.Query, 0)
	if _, err := p.Serve(old); !errors.Is(err, ErrReplayedQID) {
		t.Fatalf("evicted replay served: %v", err)
	}
	fresh := Request{ClientID: "alice", QID: n, Query: "SELECT 1"}
	fresh.MAC = SignRequestTimeout(key, fresh.ClientID, fresh.QID, fresh.Query, 0)
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

// refField feeds one field to h the way the MAC code did before MAC
// inputs were built in a buffer: the u32 length, then the bytes, each its
// own Write.
func refField(h hash.Hash, b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	h.Write(n[:])
	h.Write(b)
}

// refRequestMAC is the request MAC fed field by field into a fresh HMAC.
func refRequestMAC(key []byte, clientID string, qid uint64, query string, timeoutMS uint64) []byte {
	mac := hmac.New(sha256.New, key)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], qid)
	for _, f := range [][]byte{[]byte("req"), []byte(clientID), b[:], []byte(query)} {
		refField(mac, f)
	}
	if timeoutMS != 0 {
		binary.LittleEndian.PutUint64(b[:], timeoutMS)
		refField(mac, []byte("deadline"))
		refField(mac, b[:])
	}
	return mac.Sum(nil)
}

// refResponseMAC is the response MAC over a digest hashed field by field,
// each row through record.Encode, into a fresh HMAC.
func refResponseMAC(key []byte, resp *Response) []byte {
	h := sha256.New()
	var b [8]byte
	for _, v := range []uint64{resp.QID, resp.Seq, uint64(resp.Affected)} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range resp.Columns {
		refField(h, []byte(c))
	}
	for _, row := range resp.Rows {
		refField(h, record.Encode(&record.Record{Data: row}))
	}
	refField(h, []byte(resp.ErrMsg))
	q := byte(0)
	if resp.Quarantined {
		q = 1
	}
	refField(h, []byte{q})
	mac := hmac.New(sha256.New, key)
	refField(mac, []byte("resp"))
	refField(mac, h.Sum(nil))
	return mac.Sum(nil)
}

// TestSignRequestTimeoutZeroCompat: a zero timeout folds nothing extra
// into the MAC — byte-identical to the deadline-less MAC, HMAC-SHA-256 over
// the length-prefixed fields "req", client id, le64(qid) and query — so
// old clients and new portals interoperate. And the MAC layout is the one
// fed field by field before MAC inputs were buffered: for requests with
// and without a deadline, empty and 64 KiB queries, and responses with
// NULL, text, float and bool values, an error message or the quarantine
// flag, one-shot and through one KeyedMAC whose pooled buffer every case
// reuses.
func TestSignRequestTimeoutZeroCompat(t *testing.T) {
	key := []byte("shared")
	legacy := refRequestMAC(key, "alice", 7, "SELECT 1", 0)
	if zero := SignRequestTimeout(key, "alice", 7, "SELECT 1", 0); !bytes.Equal(legacy, zero) {
		t.Fatal("zero-timeout MAC differs from the deadline-less MAC")
	}
	if with := SignRequestTimeout(key, "alice", 7, "SELECT 1", 250); bytes.Equal(with, legacy) {
		t.Fatal("timeout not folded into the MAC")
	}

	keyed := NewKeyedMAC(key)
	big := strings.Repeat("x", 64<<10)
	for _, query := range []string{"", "SELECT 1", big} {
		for _, timeout := range []uint64{0, 250} {
			want := refRequestMAC(key, "alice", 9, query, timeout)
			got := keyed.RequestMAC("alice", 9, query, timeout)
			if !bytes.Equal(got[:], want) || !bytes.Equal(SignRequestTimeout(key, "alice", 9, query, timeout), want) {
				t.Errorf("request MAC (query of %d bytes, timeout %d) differs from the field-by-field MAC", len(query), timeout)
			}
		}
	}
	rows := []record.Tuple{
		{record.Int(1), record.Null(record.TypeText), record.Float(-2.5), record.Bool(true)},
		{record.Int(-7), record.Text("héllo"), record.Null(record.TypeFloat), record.Bool(false)},
		{record.Null(record.TypeInt), record.Text(""), record.Float(0), record.Null(record.TypeBool)},
	}
	for name, resp := range map[string]*Response{
		"empty":       {QID: 1, Seq: 1},
		"rows":        {QID: 2, Seq: 5, Columns: []string{"i", "s", "f", "b"}, Rows: rows},
		"big rows":    {QID: 3, Seq: 6, Columns: []string{"s"}, Rows: []record.Tuple{{record.Text(big)}, {record.Text(big)}}},
		"affected":    {QID: 4, Seq: 7, Affected: 3},
		"error":       {QID: 5, Seq: 8, ErrMsg: "core: no such table"},
		"quarantined": {QID: 6, Seq: 9, ErrMsg: "vmem: tamper detected", Quarantined: true},
	} {
		want := refResponseMAC(key, resp)
		got := keyed.ResponseMAC(resp)
		if !bytes.Equal(got[:], want) || !bytes.Equal(SignResponse(key, resp), want) {
			t.Errorf("%s: response MAC differs from the field-by-field MAC", name)
		}
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
		req.MAC = SignRequestTimeout(keys[id], id, qid, req.Query, 0)
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
	recent.MAC = SignRequestTimeout(keys["alice"], "alice", recent.QID, recent.Query, 0)
	if _, err := p.Serve(recent); err != nil {
		t.Fatalf("cached replay rejected: %v", err)
	}
	old := Request{ClientID: "alice", QID: 1, Query: "SELECT 1"}
	old.MAC = SignRequestTimeout(keys["alice"], "alice", old.QID, old.Query, 0)
	if _, err := p.Serve(old); !errors.Is(err, ErrReplayedQID) {
		t.Fatalf("evicted replay served: %v", err)
	}
	setCacheBound(p, 1)
	if st := p.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("byte bound of 1 left %+v", st)
	}
}
