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
// tests can size responses around the replay window's byte rule.
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

// replayErr replays alice's "SELECT 1" under qid and returns the error.
func replayErr(p *Portal, key []byte, qid uint64) error {
	req := Request{ClientID: "alice", QID: qid, Query: "SELECT 1"}
	req.MAC = SignRequestTimeout(key, req.ClientID, req.QID, req.Query, 0)
	_, err := p.Serve(req)
	return err
}

// TestResponseCacheByteBound: a response over maxReplayBytes is returned
// and MAC-verifies, but the window does not keep it — it charges nothing
// to the budget and its replay is refused like an evicted one — while a
// response just under the rule is kept, and a full window of such
// responses stays within 16 MiB.
func TestResponseCacheByteBound(t *testing.T) {
	ex := &wideExec{width: maxReplayBytes}
	p, key := newPortal(t, ex)
	b := govern.NewBudget(0) // track-only
	p.SetBudget(b)
	resp := serveOK(t, p, key, 1)
	if sz := responseBytes(resp); sz <= maxReplayBytes {
		t.Fatalf("response of %d bytes is not over the %d-byte rule", sz, maxReplayBytes)
	}
	if !bytes.Equal(resp.MAC, SignResponse(key, resp)) {
		t.Fatal("large response MAC does not verify")
	}
	if st := p.CacheStats(); st != (CacheStats{}) || b.Used() != 0 {
		t.Fatalf("large response kept: %+v, budget used %d", st, b.Used())
	}
	if err := replayErr(p, key, 1); !errors.Is(err, ErrReplayedQID) {
		t.Fatalf("replay of an unkept response: %v", err)
	}

	ex.width = maxReplayBytes - 1024
	for qid := uint64(2); qid <= replayWindow+10; qid++ {
		serveOK(t, p, key, qid)
	}
	st := p.CacheStats()
	if st.Entries != replayWindow || st.Bytes > 16<<20 || b.Used() != st.Bytes {
		t.Fatalf("full window %+v, budget used %d", st, b.Used())
	}
	if err := replayErr(p, key, replayWindow+10); err != nil {
		t.Fatalf("kept replay rejected: %v", err)
	}
}

// TestResponseCacheChargesBudget: every kept byte is charged to the
// process budget, and a response overwritten by a later one releases its
// charge and counts one eviction, so the windows' footprint is visible to
// (and bounded with) the rest of the memory governor.
func TestResponseCacheChargesBudget(t *testing.T) {
	p, key := newPortal(t, &wideExec{width: 512})
	b := govern.NewBudget(0) // track-only
	p.SetBudget(b)
	for qid := uint64(1); qid <= 8; qid++ {
		serveOK(t, p, key, qid)
	}
	st := p.CacheStats()
	if st.Entries != 8 || st.Evictions != 0 || b.Used() != st.Bytes {
		t.Fatalf("after 8 responses: %+v, budget used %d", st, b.Used())
	}
	// replayWindow more responses of the same size: the last 8 overwrite
	// qids 1 … 8.
	for qid := uint64(9); qid <= replayWindow+8; qid++ {
		serveOK(t, p, key, qid)
	}
	got := p.CacheStats()
	if got.Entries != replayWindow || got.Evictions != 8 || got.Bytes != st.Bytes/8*replayWindow || b.Used() != got.Bytes {
		t.Fatalf("after %d responses: %+v, budget used %d", replayWindow+8, got, b.Used())
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

// TestReplayStateStaysBounded: the per-client replay state must not grow
// with the number of statements served. Two clients push 100 000
// statements between them, each in pipelined windows whose qids reach the
// portal out of order; afterwards each client's served-qid set is one
// interval (never more than a window's worth on the way), and the replay
// windows hold exactly their replayWindow latest responses each.
func TestReplayStateStaysBounded(t *testing.T) {
	enc := enclave.NewForTest(3)
	keys := map[string][]byte{"alice": []byte("ka"), "bob": []byte("kb")}
	for id, key := range keys {
		enc.ProvisionMACKey(id, key)
	}
	p := New(enc, &echoExec{})
	b := govern.NewBudget(0)
	p.SetBudget(b)

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
				if n := p.client(id).seen.Len(); n > window {
					t.Fatalf("%s: %d qid intervals with a window of %d", id, n, window)
				}
			}
		}
	}

	for id := range keys {
		if n := p.client(id).seen.Len(); n != 1 {
			t.Fatalf("%s: %d qid intervals after %d consecutive qids, want 1", id, n, perClient)
		}
	}
	st := p.CacheStats()
	if st.Entries != 2*replayWindow || st.Evictions != 2*(perClient-replayWindow) || b.Used() != st.Bytes {
		t.Fatalf("windows %+v, budget used %d; want %d entries and %d evictions",
			st, b.Used(), 2*replayWindow, 2*(perClient-replayWindow))
	}

	// The window is the latest replayWindow qids: the oldest of them
	// replays its endorsement, the one just below is refused.
	if err := replayErr(p, keys["alice"], perClient-replayWindow+1); err != nil {
		t.Fatalf("replay inside the window rejected: %v", err)
	}
	if err := replayErr(p, keys["alice"], perClient-replayWindow); !errors.Is(err, ErrReplayedQID) {
		t.Fatalf("replay below the window served: %v", err)
	}
}
