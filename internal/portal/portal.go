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

// Result is a query outcome produced by the trusted executor.
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

	macs sync.Map // client ID -> *keyedMAC

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

// Seq returns the highest sequence number assigned so far — the floor a
// failover replacement must resume above for clients to observe seq
// continuity.
func (p *Portal) Seq() uint64 { return p.seq.Load() }

// SignRequest computes the request MAC with the pre-exchanged key. The
// client package calls this on its own copy of the key.
func SignRequest(key []byte, clientID string, qid uint64, query string) []byte {
	return SignRequestTimeout(key, clientID, qid, query, 0)
}

// SignRequestTimeout is SignRequest for requests carrying a per-request
// deadline. A zero timeout yields the exact legacy MAC (the field is
// folded in only when set), so deadline-less clients and servers remain
// bit-compatible; a nonzero timeout is authenticated so a relay cannot
// strip or stretch a client's deadline.
func SignRequestTimeout(key []byte, clientID string, qid uint64, query string, timeoutMS uint64) []byte {
	return signRequest(hmac.New(sha256.New, key), clientID, qid, query, timeoutMS)
}

// signRequest is SignRequestTimeout on a MAC already keyed and reset.
func signRequest(mac hash.Hash, clientID string, qid uint64, query string, timeoutMS uint64) []byte {
	writeField(mac, []byte("req"))
	writeField(mac, []byte(clientID))
	var q [8]byte
	binary.LittleEndian.PutUint64(q[:], qid)
	writeField(mac, q[:])
	writeField(mac, []byte(query))
	if timeoutMS != 0 {
		var t [8]byte
		binary.LittleEndian.PutUint64(t[:], timeoutMS)
		writeField(mac, []byte("deadline"))
		writeField(mac, t[:])
	}
	return mac.Sum(nil)
}

// ResponseDigest deterministically hashes a response's payload.
func ResponseDigest(resp *Response) []byte {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], resp.QID)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], resp.Seq)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(resp.Affected))
	h.Write(b[:])
	for _, c := range resp.Columns {
		writeField(h, []byte(c))
	}
	for _, row := range resp.Rows {
		writeField(h, record.Encode(&record.Record{Data: row}))
	}
	writeField(h, []byte(resp.ErrMsg))
	q := byte(0)
	if resp.Quarantined {
		q = 1
	}
	writeField(h, []byte{q})
	return h.Sum(nil)
}

// SignResponse computes the response MAC.
func SignResponse(key []byte, resp *Response) []byte {
	return signResponse(hmac.New(sha256.New, key), resp)
}

// signResponse is SignResponse on a MAC already keyed and reset.
func signResponse(mac hash.Hash, resp *Response) []byte {
	writeField(mac, []byte("resp"))
	writeField(mac, ResponseDigest(resp))
	return mac.Sum(nil)
}

// keyedMAC is one client's pool of HMAC states keyed with its key: keying
// runs the hash's compression twice, a Reset restores the keyed state, so
// the portal keys once per state and not twice per request (the check and
// the endorsement) — what sethash.Key does for the PRF.
type keyedMAC struct {
	key  []byte
	pool sync.Pool // of hash.Hash
}

func (k *keyedMAC) get() hash.Hash {
	if mac, ok := k.pool.Get().(hash.Hash); ok {
		mac.Reset()
		return mac
	}
	return hmac.New(sha256.New, k.key)
}

// macFor returns the client's keyed states, rekeyed if the enclave was
// provisioned another key for the client since.
func (p *Portal) macFor(clientID string, key []byte) *keyedMAC {
	if v, ok := p.macs.Load(clientID); ok && bytes.Equal(v.(*keyedMAC).key, key) {
		return v.(*keyedMAC)
	}
	k := &keyedMAC{key: key}
	p.macs.Store(clientID, k)
	return k
}

func writeField(h interface{ Write([]byte) (int, error) }, b []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	h.Write(n[:])
	h.Write(b)
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
	mac := keyed.get()
	defer keyed.pool.Put(mac)
	want := signRequest(mac, req.ClientID, req.QID, req.Query, req.TimeoutMS)
	if !hmac.Equal(want, req.MAC) {
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
		if ok && hmac.Equal(cached.reqMAC[:], want) {
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
	mac.Reset()
	resp.MAC = signResponse(mac, resp)
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
func (p *Portal) cacheResponse(st *clientState, resp *Response, reqMAC []byte) {
	sz := responseBytes(resp)
	e := cachedResponse{resp: resp, size: sz}
	copy(e.reqMAC[:], reqMAC)
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
