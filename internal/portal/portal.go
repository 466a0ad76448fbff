// Package portal implements VeriDB's query portal (paper §5.1): the
// enclave-resident entry point that authorises client queries, assigns
// strictly increasing sequence numbers (the rollback defence), executes
// them, and endorses results on the way back to the client (Fig. 2 steps
// 1 and 7).
package portal

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/govern"
	"veridb/internal/record"
	"veridb/internal/seqset"
)

// Errors raised by the portal.
var (
	// ErrUnauthorized covers unknown clients and MAC mismatches: the query
	// was not initiated by the claimed client (§5.1 "otherwise an
	// adversarial service provider can launch a SQL query to modify the
	// database in any way it wants").
	ErrUnauthorized = errors.New("portal: query authorization failed")
	// ErrReplayedQID means a query id was seen before: a replayed request.
	ErrReplayedQID = errors.New("portal: query id replayed")
)

// Result is a query outcome produced by the trusted executor. Columns
// may be shared by every result of one cached statement shape: it is read,
// never written.
type Result struct {
	Columns  []string
	Rows     []record.Tuple
	Affected int
}

// Executor runs an authorised query inside the trust boundary; core.DB is
// the implementation.
//
// ExecuteContext runs the query in the issuing client's own session
// (BEGIN SNAPSHOT pins a read point for that client only, so one client's
// pinned snapshot never leaks into another's queries) and under ctx, which
// carries the request's TimeoutMS: the statement is cancelled — resources
// released — once it elapses.
//
// QuarantineError reports a sticky integrity compromise. A non-nil error
// fences execution: the portal answers every request with an authenticated
// quarantine response instead of endorsing results from tampered state.
type Executor interface {
	ExecuteContext(ctx context.Context, clientID, query string) (*Result, error)
	QuarantineError() error
}

// Request is an authenticated client query.
type Request struct {
	ClientID string
	QID      uint64 // unique per client; replays are rejected
	Query    string
	// TimeoutMS, when nonzero, is the client's per-request deadline in
	// milliseconds; the server's own StatementTimeout still applies
	// (whichever is sooner wins). Folded into the MAC only when set, so
	// requests without a deadline authenticate exactly as before.
	TimeoutMS uint64
	MAC       []byte // HMAC(k, clientID ‖ qid ‖ query [‖ timeout])
}

// Response carries the result, its sequence number and the portal's MAC.
type Response struct {
	QID      uint64
	Seq      uint64 // strictly increasing; repeats reveal rollback (§5.1)
	Columns  []string
	Rows     []record.Tuple
	Affected int
	ErrMsg   string // execution error, authenticated like any result
	// Quarantined marks an authenticated "integrity compromised" response:
	// the database's verifier raised a sticky tamper alarm and the portal
	// refuses to endorse results from the compromised state. The flag is
	// part of the MACed digest, so a client can distinguish an honest
	// quarantine from a lying server stripping or forging errors.
	Quarantined bool
	MAC         []byte // HMAC(k, "resp" ‖ qid ‖ seq ‖ digest)
}

// replayWindow is how many of its latest responses a client's record keeps
// for retries, each overwriting the oldest; a retry whose response has
// left gets ErrReplayedQID again. Slots go by completion, not by qid: a
// client's qids have gaps (a request signed and never sent, an overload
// retry under a fresh qid).
const replayWindow = 128

// maxReplayBytes is the largest response a window keeps, so a client's
// window never holds more than 16 MiB. A larger result is a read the
// client can run again.
const maxReplayBytes = 16 << 20 / replayWindow

// clientState is the portal's record of one provisioned client: its keyed
// MAC states, its served qids as merged intervals (a replay never
// re-executes; consecutive qids cost one interval), and the replay window
// of its latest endorsed responses. mu guards the window only.
type clientState struct {
	keyed  atomic.Pointer[KeyedMAC]
	seen   seqset.Set
	mu     sync.Mutex
	window [replayWindow]cachedResponse
	oldest int // the slot the next kept response overwrites
}

// cachedResponse is one slot of a replay window: an endorsed response (nil
// if empty), its byte estimate and the MAC of the request it answered. The
// response MAC does not cover the query, so a slot answers only that
// request, not another session's reuse of the qid.
type cachedResponse struct {
	resp   *Response
	size   int64
	reqMAC [sha256.Size]byte
}

// Portal is the enclave-resident query gateway.
type Portal struct {
	enc  *enclave.Enclave
	exec Executor
	seq  *atomic.Uint64

	clients sync.Map // client ID -> *clientState

	// Replay-window accounting across all clients — kept responses, their
	// estimated bytes, responses overwritten — and the process budget the
	// kept bytes are charged to (nil: none).
	entries, used, evictions atomic.Int64
	budget                   *govern.Budget
}

// New builds a portal over an enclave and executor.
func New(enc *enclave.Enclave, exec Executor) *Portal {
	return &Portal{enc: enc, exec: exec, seq: enc.MonotonicCounter("portal-seq")}
}

// SetBudget charges kept response bytes against the process memory budget
// (nil detaches). Call before serving traffic.
func (p *Portal) SetBudget(b *govern.Budget) { p.budget = b }

// CacheStats is a point-in-time snapshot of the replay windows.
type CacheStats struct {
	// Entries is the number of kept responses across all clients.
	Entries int
	// Bytes is the estimated total size of kept responses.
	Bytes int64
	// Evictions counts kept responses overwritten since the portal started.
	Evictions int64
}

// CacheStats snapshots the replay-window counters.
func (p *Portal) CacheStats() CacheStats {
	return CacheStats{Entries: int(p.entries.Load()), Bytes: p.used.Load(), Evictions: p.evictions.Load()}
}

// responseBytes estimates a cached response's heap footprint.
func responseBytes(resp *Response) int64 {
	n := int64(160) // struct, slice headers, MAC backing array
	n += int64(len(resp.ErrMsg) + len(resp.MAC))
	for _, c := range resp.Columns {
		n += 16 + int64(len(c))
	}
	for _, row := range resp.Rows {
		n += record.TupleBytes(row)
	}
	return n
}

// Seq returns the highest sequence number assigned so far — the floor an
// instance rebuilt with Recover must resume above for clients to observe
// seq continuity.
func (p *Portal) Seq() uint64 { return p.seq.Load() }

// SignRequestTimeout computes the request MAC with the pre-exchanged key;
// the client package calls it on its own copy of the key. timeoutMS is
// the request's deadline, zero for none. A zero timeout folds nothing in,
// so deadline-less requests keep the MAC they had before deadlines
// existed; a nonzero timeout is authenticated so a relay cannot strip or
// stretch a client's deadline. It keys an HMAC for this one call; an end
// that signs many requests holds a KeyedMAC.
func SignRequestTimeout(key []byte, clientID string, qid uint64, query string, timeoutMS uint64) []byte {
	msg := make([]byte, 0, 48+len(clientID)+len(query))
	return oneShotMAC(key, appendRequestInput(msg, clientID, qid, query, timeoutMS))
}

// SignResponse computes the response MAC, keying an HMAC for this one
// call (see SignRequestTimeout).
func SignResponse(key []byte, resp *Response) []byte {
	return oneShotMAC(key, appendResponseInput(make([]byte, 0, 256), resp))
}

func oneShotMAC(key, msg []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return mac.Sum(nil)
}

// appendRequestInput appends the bytes the request MAC covers, each a
// field: "req", the client id, le64(qid), the query and, only when
// nonzero, "deadline" and le64(timeoutMS).
func appendRequestInput(b []byte, clientID string, qid uint64, query string, timeoutMS uint64) []byte {
	b = AppendField(b, "req")
	b = AppendField(b, clientID)
	b = appendU64Field(b, qid)
	b = AppendField(b, query)
	if timeoutMS != 0 {
		b = AppendField(b, "deadline")
		b = appendU64Field(b, timeoutMS)
	}
	return b
}

// appendResponseInput appends to b[:0] the bytes the response MAC covers:
// "resp" and the response digest, each a field. The digest input is built
// in b first and hashed on the stack.
func appendResponseInput(b []byte, resp *Response) []byte {
	b = appendDigestInput(b[:0], resp)
	d := sha256.Sum256(b)
	b = AppendField(b[:0], "resp")
	return AppendField(b, d[:])
}

// ResponseDigest deterministically hashes a response's payload.
func ResponseDigest(resp *Response) []byte {
	d := sha256.Sum256(appendDigestInput(nil, resp))
	return d[:]
}

// appendDigestInput appends the bytes ResponseDigest hashes: le64 qid, seq
// and affected count, then as fields the column names, each row's
// record.Encode image, the error message and the quarantine flag.
func appendDigestInput(b []byte, resp *Response) []byte {
	b = binary.LittleEndian.AppendUint64(b, resp.QID)
	b = binary.LittleEndian.AppendUint64(b, resp.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.Affected))
	for _, c := range resp.Columns {
		b = AppendField(b, c)
	}
	for _, row := range resp.Rows {
		b = AppendRowField(b, row)
	}
	b = AppendField(b, resp.ErrMsg)
	q := byte(0)
	if resp.Quarantined {
		q = 1
	}
	b = binary.LittleEndian.AppendUint32(b, 1) // a one-byte field
	return append(b, q)
}

// AppendField appends the protocol's one field primitive: the length of p
// as a little-endian u32, then p. Every MAC input and every wire payload
// is built of these fields and little-endian fixed-width integers.
func AppendField[T ~[]byte | ~string](b []byte, p T) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// appendU64Field appends le64(v) as a field.
func appendU64Field(b []byte, v uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, 8)
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendRowField appends a result row as one field holding its
// record.Encode image: the bytes the response digest covers for the row,
// and the bytes a result frame carries, so a client rebuilds exactly what
// was endorsed.
func AppendRowField(b []byte, row record.Tuple) []byte {
	at := len(b)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = record.AppendEncode(b, &record.Record{Data: row})
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// KeyedMAC computes the protocol's MACs under one key, at either end: the
// portal holds one per client, a client.Client its own. It pools HMAC
// states already keyed — keying runs the hash's compression twice and a
// Reset restores the keyed state, so a state is keyed once and not twice
// per request (the check and the endorsement; the signature and the
// verification), which is what sethash.Key does for the PRF — and beside
// each state the buffer its messages are built in, so a MAC costs one
// pass over fields appended into memory the state already owns, and no
// allocation. No pooled memory leaves: a MAC comes back as an array.
type KeyedMAC struct {
	key  []byte
	pool sync.Pool // of *macState
}

// macState is one pooled keyed HMAC with its message buffer and the
// array its sum is written into.
type macState struct {
	mac hash.Hash
	buf []byte
	sum [sha256.Size]byte
}

// maxPooledMessage bounds the message buffer a pooled state keeps: a
// larger result's digest input is built in a buffer dropped after use, so
// the pool's footprint stays at a few small responses' worth.
const maxPooledMessage = 64 << 10

// NewKeyedMAC returns the MAC helper for key, which it keeps and does not
// copy.
func NewKeyedMAC(key []byte) *KeyedMAC { return &KeyedMAC{key: key} }

// get returns a keyed state: a pooled one, reset to the keyed state, or
// one keyed now.
func (k *KeyedMAC) get() *macState {
	if st, ok := k.pool.Get().(*macState); ok {
		st.mac.Reset()
		return st
	}
	return &macState{mac: hmac.New(sha256.New, k.key)}
}

// sum MACs the state's message and returns the state to the pool.
func (k *KeyedMAC) sum(st *macState) (out [sha256.Size]byte) {
	st.mac.Write(st.buf)
	copy(out[:], st.mac.Sum(st.sum[:0]))
	if cap(st.buf) > maxPooledMessage {
		st.buf = nil
	}
	k.pool.Put(st)
	return out
}

// RequestMAC is the request MAC (see SignRequestTimeout).
func (k *KeyedMAC) RequestMAC(clientID string, qid uint64, query string, timeoutMS uint64) [sha256.Size]byte {
	st := k.get()
	st.buf = appendRequestInput(st.buf[:0], clientID, qid, query, timeoutMS)
	return k.sum(st)
}

// ResponseMAC is the response MAC: HMAC(k, "resp" ‖ ResponseDigest(resp)),
// each a field.
func (k *KeyedMAC) ResponseMAC(resp *Response) [sha256.Size]byte {
	st := k.get()
	st.buf = appendResponseInput(st.buf, resp)
	return k.sum(st)
}

// client returns the client's record, made on its first request.
func (p *Portal) client(clientID string) *clientState {
	v, ok := p.clients.Load(clientID)
	if !ok {
		v, _ = p.clients.LoadOrStore(clientID, new(clientState))
	}
	return v.(*clientState)
}

// macFor returns the client's keyed states, rekeyed if the enclave was
// provisioned another key for the client since.
func (st *clientState) macFor(key []byte) *KeyedMAC {
	if k := st.keyed.Load(); k != nil && bytes.Equal(k.key, key) {
		return k
	}
	k := NewKeyedMAC(key)
	st.keyed.Store(k)
	return k
}

// Serve authorises and executes one request (Fig. 2 steps 1–7). Every
// response — including execution failures and integrity quarantines — is
// sequenced and MACed so the client can detect tampering with the error
// channel too. A replayed request whose original response is still in the
// client's replay window returns that endorsement (idempotent client
// retries after a lost response); any other request under a used qid is
// rejected. Serve takes no lock but its own client's.
func (p *Portal) Serve(req Request) (*Response, error) {
	p.enc.ECall() // the query enters the enclave
	key, ok := p.enc.MACKey(req.ClientID)
	if !ok {
		return nil, fmt.Errorf("%w: unknown client %q", ErrUnauthorized, req.ClientID)
	}
	st := p.client(req.ClientID)
	keyed := st.macFor(key)
	want := keyed.RequestMAC(req.ClientID, req.QID, req.Query, req.TimeoutMS)
	if !hmac.Equal(want[:], req.MAC) {
		return nil, fmt.Errorf("%w: MAC mismatch for client %q", ErrUnauthorized, req.ClientID)
	}
	if _, _, first := st.seen.Add(req.QID); !first {
		if resp := st.replay(req.QID, want); resp != nil {
			return resp, nil
		}
		// Evicted, too large to keep, the first execution still in flight,
		// or another request under a used qid: a retry must not re-execute
		// (at-most-once) and a different request must not get this qid's
		// endorsement.
		return nil, fmt.Errorf("%w: client %q qid %d", ErrReplayedQID, req.ClientID, req.QID)
	}

	resp := &Response{QID: req.QID, Seq: p.seq.Add(1)}
	// fenced reports whether the database is quarantined and, if so, makes
	// resp endorse the quarantine itself, never a result computed from
	// tampered state.
	fenced := func() bool {
		qerr := p.exec.QuarantineError()
		if qerr == nil {
			return false
		}
		resp.Quarantined = true
		resp.ErrMsg = qerr.Error()
		return true
	}
	if !fenced() {
		res, err := p.execute(req)
		switch {
		case err == nil:
			resp.Columns = res.Columns
			resp.Rows = res.Rows
			resp.Affected = res.Affected
		// An alarm raised after the first check fails the statement inside
		// the executor: the client must get the quarantine flag, not an
		// ordinary statement error from a dying instance. So check again.
		case !fenced():
			resp.ErrMsg = err.Error()
		}
	}
	mac := keyed.ResponseMAC(resp)
	resp.MAC = mac[:]
	p.keep(st, resp, want)
	return resp, nil
}

// execute runs the request's statement in the client's session, under the
// request's own deadline if it carries one.
func (p *Portal) execute(req Request) (*Result, error) {
	ctx := context.Background()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	return p.exec.ExecuteContext(ctx, req.ClientID, req.Query)
}

// replay returns the kept response to qid if it answered the request with
// MAC reqMAC, and nil otherwise.
func (st *clientState) replay(qid uint64, reqMAC [sha256.Size]byte) *Response {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.window {
		if e := &st.window[i]; e.resp != nil && e.resp.QID == qid && e.reqMAC == reqMAC {
			return e.resp
		}
	}
	return nil
}

// keep puts an endorsed response of at most maxReplayBytes in the client's
// window in place of the oldest. Its bytes are charged to the budget
// unconditionally: the response is already-committed memory, so overshoot
// shows up as pressure on future reservations.
func (p *Portal) keep(st *clientState, resp *Response, reqMAC [sha256.Size]byte) {
	sz := responseBytes(resp)
	if sz > maxReplayBytes {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	slot := &st.window[st.oldest]
	st.oldest = (st.oldest + 1) % replayWindow
	if slot.resp == nil {
		p.entries.Add(1)
	} else {
		p.used.Add(-slot.size)
		p.budget.Release(slot.size)
		p.evictions.Add(1)
	}
	*slot = cachedResponse{resp: resp, size: sz, reqMAC: reqMAC}
	p.used.Add(sz)
	p.budget.Charge(sz)
}

// ResumeAt fast-forwards the sequence counter after recovery. A machine
// failure wipes the enclave (and, for an in-memory database, the data);
// recovery replays writes from a replica and must resume sequencing above
// every number the client has already seen, which the client supplies
// (§5.1: defending rollback "crucially relies on a trusted persistent
// storage" — here, the client's own interval list).
func (p *Portal) ResumeAt(floor uint64) {
	for {
		cur := p.seq.Load()
		if cur >= floor {
			return
		}
		if p.seq.CompareAndSwap(cur, floor) {
			return
		}
	}
}
