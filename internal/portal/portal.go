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

// responseCacheSize bounds the per-client last-response cache. A retried
// request whose original response was already evicted gets ErrReplayedQID
// again — the cache trades a little enclave memory for retry idempotence,
// not unbounded history.
const responseCacheSize = 128

// responseCacheBytes bounds the response cache's total estimated bytes
// across all clients: a handful of very large result sets must not dwarf
// the per-client entry limit. Oldest entries are evicted first.
const responseCacheBytes = 16 << 20

// clientState is the portal's per-client replay defence: the full set of
// served qids (replays are never re-executed), kept as merged intervals so
// a client issuing consecutive qids costs O(in-flight window) however many
// statements it has run, plus a bounded cache of the most recent endorsed
// responses so a client retrying a lost response gets the original
// endorsement back instead of an error.
type clientState struct {
	seen  seqset.Set
	cache map[uint64]cachedResponse
	order []uint64 // cached qids, oldest first (eviction order)
}

// cachedResponse is one endorsed response, its byte estimate (for
// eviction) and the MAC of the request it answered. The response MAC
// covers the qid but not the query, so a replay is served the response
// only if it is the same request: a second session under the client's id
// that restarts its qids at 1 must not be answered with the first
// session's endorsements.
type cachedResponse struct {
	resp   *Response
	size   int64
	reqMAC [sha256.Size]byte
}

// cacheRef identifies one cached response in global insertion order.
type cacheRef struct {
	st  *clientState
	qid uint64
}

// Portal is the enclave-resident query gateway.
type Portal struct {
	enc  *enclave.Enclave
	exec Executor
	seq  *atomic.Uint64

	macs sync.Map // client ID -> *KeyedMAC

	mu      sync.Mutex
	clients map[string]*clientState
	// Response-cache accounting: live entries, their total estimated
	// bytes, the byte bound, the global oldest-first eviction order (which
	// may hold refs to entries the per-client cap already dropped; see
	// compactOrderLocked), and the eviction counter.
	cacheEntries int
	cacheBytes   int64
	cacheMax     int64
	cacheOrder   []cacheRef
	evictions    int64
	// budget, when set, is charged for cached response bytes so the cache
	// participates in the process memory governor.
	budget *govern.Budget
}

// New builds a portal over an enclave and executor.
func New(enc *enclave.Enclave, exec Executor) *Portal {
	return &Portal{
		enc:      enc,
		exec:     exec,
		seq:      enc.MonotonicCounter("portal-seq"),
		clients:  make(map[string]*clientState),
		cacheMax: responseCacheBytes,
	}
}

// SetBudget charges cached response bytes against the process memory
// budget (nil detaches). Call before serving traffic.
func (p *Portal) SetBudget(b *govern.Budget) {
	p.mu.Lock()
	p.budget = b
	p.mu.Unlock()
}

// CacheStats is a point-in-time snapshot of the response cache.
type CacheStats struct {
	// Entries is the number of cached responses across all clients.
	Entries int
	// Bytes is the estimated total size of cached responses.
	Bytes int64
	// Evictions counts responses dropped by either bound (per-client
	// entries or total bytes) since the portal started.
	Evictions int64
}

// CacheStats snapshots the response-cache counters.
func (p *Portal) CacheStats() CacheStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CacheStats{Entries: p.cacheEntries, Bytes: p.cacheBytes, Evictions: p.evictions}
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

// macFor returns the client's keyed states, rekeyed if the enclave was
// provisioned another key for the client since.
func (p *Portal) macFor(clientID string, key []byte) *KeyedMAC {
	if v, ok := p.macs.Load(clientID); ok && bytes.Equal(v.(*KeyedMAC).key, key) {
		return v.(*KeyedMAC)
	}
	k := NewKeyedMAC(key)
	p.macs.Store(clientID, k)
	return k
}

// Serve authorises and executes one request (Fig. 2 steps 1–7). Every
// response — including execution failures and integrity quarantines — is
// sequenced and MACed so the client can detect tampering with the error
// channel too. A replayed request whose original response is still cached
// returns that cached endorsement (idempotent client retries after a lost
// response); any other request under a used qid is rejected.
func (p *Portal) Serve(req Request) (*Response, error) {
	p.enc.ECall() // the query enters the enclave
	key, ok := p.enc.MACKey(req.ClientID)
	if !ok {
		return nil, fmt.Errorf("%w: unknown client %q", ErrUnauthorized, req.ClientID)
	}
	keyed := p.macFor(req.ClientID, key)
	want := keyed.RequestMAC(req.ClientID, req.QID, req.Query, req.TimeoutMS)
	if !hmac.Equal(want[:], req.MAC) {
		return nil, fmt.Errorf("%w: MAC mismatch for client %q", ErrUnauthorized, req.ClientID)
	}
	p.mu.Lock()
	st := p.clients[req.ClientID]
	if st == nil {
		st = &clientState{cache: make(map[uint64]cachedResponse)}
		p.clients[req.ClientID] = st
	}
	if _, _, first := st.seen.Add(req.QID); !first {
		cached, ok := st.cache[req.QID]
		p.mu.Unlock()
		if ok && cached.reqMAC == want {
			return cached.resp, nil
		}
		// Evicted, the first execution still in flight, or another request
		// under a used qid: a retry must not re-execute (at-most-once) and
		// a different request must not get this qid's endorsement.
		return nil, fmt.Errorf("%w: client %q qid %d", ErrReplayedQID, req.ClientID, req.QID)
	}
	p.mu.Unlock()

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
	p.cacheResponse(st, resp, want)
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

// cacheResponse stores an endorsed response for retry idempotence. Two
// bounds apply: the per-client entry cap (replay-window depth) and the
// portal-wide byte cap (total memory), both evicting oldest-first. Cached
// bytes are charged to the process budget unconditionally — the cache is
// already-committed memory, so overshoot shows up as pressure for future
// reservations rather than failing the response that was just served.
func (p *Portal) cacheResponse(st *clientState, resp *Response, reqMAC [sha256.Size]byte) {
	sz := responseBytes(resp)
	e := cachedResponse{resp: resp, size: sz, reqMAC: reqMAC}
	p.mu.Lock()
	st.cache[resp.QID] = e
	st.order = append(st.order, resp.QID)
	p.cacheOrder = append(p.cacheOrder, cacheRef{st: st, qid: resp.QID})
	p.cacheEntries++
	p.cacheBytes += sz
	p.budget.Charge(sz)
	for len(st.order) > responseCacheSize {
		p.dropEntryLocked(st, st.order[0])
		st.order = st.order[1:]
	}
	p.evictOverBytesLocked()
	p.compactOrderLocked()
	p.mu.Unlock()
}

// cacheOrderSlack is how many dead refs cacheOrder may carry beyond one per
// live entry before it is compacted.
const cacheOrderSlack = 64

// compactOrderLocked keeps cacheOrder proportional to the live cache. The
// per-client cap drops entries without touching cacheOrder, and on ordinary
// traffic the byte bound never binds, so without this the order list would
// gain one ref per statement forever. Filtering once dead refs outnumber
// live ones makes the sweep O(1) amortised per cached response.
func (p *Portal) compactOrderLocked() {
	if len(p.cacheOrder) <= 2*p.cacheEntries+cacheOrderSlack {
		return
	}
	live := p.cacheOrder[:0]
	for _, ref := range p.cacheOrder {
		if _, ok := ref.st.cache[ref.qid]; ok {
			live = append(live, ref)
		}
	}
	p.cacheOrder = live
}

// evictOverBytesLocked drops oldest entries until the cache fits cacheMax.
// Refs whose entry was already removed by the per-client cap are skipped
// (dropEntryLocked no-ops on absent qids).
func (p *Portal) evictOverBytesLocked() {
	for p.cacheBytes > p.cacheMax && len(p.cacheOrder) > 0 {
		ref := p.cacheOrder[0]
		p.cacheOrder = p.cacheOrder[1:]
		p.dropEntryLocked(ref.st, ref.qid)
	}
}

// dropEntryLocked removes one cached response, returning its bytes to the
// accounting and the budget. No-op if the entry is already gone.
func (p *Portal) dropEntryLocked(st *clientState, qid uint64) {
	e, ok := st.cache[qid]
	if !ok {
		return
	}
	delete(st.cache, qid)
	p.cacheEntries--
	p.cacheBytes -= e.size
	p.budget.Release(e.size)
	p.evictions++
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
