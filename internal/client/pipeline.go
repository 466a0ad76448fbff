package client

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/govern"
	"veridb/internal/portal"
	"veridb/internal/wire"
)

// ErrPipelineClosed reports an operation on a pipeline whose connection is
// gone; the originating transport error (if any) is wrapped alongside it.
var ErrPipelineClosed = errors.New("client: pipeline closed")

// ErrTimeout means a call's response deadline passed on every attempt its
// retry budget allowed: the peer never answered.
var ErrTimeout = errors.New("client: request timed out")

// The pipeline's policy. Every pipeline NewPipeline builds runs these
// values; tests shorten them through newPipeline's policy.
//
// Safe retries lean on two protocol properties: requests are idempotent at
// the portal (a re-sent qid returns the kept original endorsement, never a
// re-execution), and every response is MAC-verified before the caller sees
// it, so a retry trusts nothing about the channel. A response that fails
// verification is never retried — a forged or rolled-back response is
// evidence, not noise — and neither is an authenticated quarantine or
// execution error. The one verified response that is retried is the
// overload refusal (govern.ErrOverloaded), an honest "come back later".
// The shipped pipeline does not retransmit: a call whose response never
// comes waits until the connection fails.
const (
	// maxInflight is the in-flight window: how many requests may await
	// responses at once. Go blocks (backpressure) when the window is full.
	maxInflight = 16
	// maxRetries bounds the fresh-qid overload retries per call.
	maxRetries = 3
	// retryBackoff is the delay before the first overload retry, doubling
	// per attempt; a larger RetryAfter hint from the server wins (see
	// retryDelay).
	retryBackoff = 5 * time.Millisecond
	// maxResponse caps one response frame's payload (a result set, not a
	// request, sets the size here).
	maxResponse = 64 << 20
)

// policy is one pipeline's window and retry policy.
type policy struct {
	window int // requests awaiting responses at once
	// retryTimeout is the per-attempt response deadline; 0 never
	// retransmits. When it elapses the call is retransmitted with the SAME
	// qid and MAC — the portal's replay window makes the retry
	// at-most-once: a finished query replays its kept endorsement, an
	// in-flight one answers "query id replayed" (which the pipeline
	// ignores for a retransmitted call; the original response is still
	// coming). A call whose budget runs out unanswered fails with
	// ErrTimeout.
	retryTimeout time.Duration
	retries      int           // extra attempts per call: retransmissions plus overload retries
	backoff      time.Duration // the first overload retry's delay
}

// Call is one in-flight pipelined request. Wait blocks for its completion.
type Call struct {
	// Resp and Err are valid after Wait returns (or done closes). For a
	// query, Err is the verification outcome — nil only for a MAC-verified,
	// sequence-tracked success.
	Resp *portal.Response
	Err  error

	kind    wire.Type
	query   string
	timeout time.Duration
	req     portal.Request
	qid     uint64
	payload []byte
	quote   enclave.Quote
	health  []byte

	attempts  int  // attempts beyond the first
	resent    bool // the current qid went out more than once
	completed bool
	timer     *time.Timer
	done      chan struct{}
}

// Wait blocks until the call completes and returns its outcome.
func (call *Call) Wait() (*portal.Response, error) {
	<-call.done
	return call.Resp, call.Err
}

// Attempts reports how many extra attempts (retransmissions or fresh-qid
// overload retries) the call took beyond its first send.
func (call *Call) Attempts() int { return call.attempts }

// Pipeline drives the binary wire protocol over one connection with many
// requests in flight: an in-flight window bounds outstanding calls, a
// writer goroutine batches frames per flush, and a reader goroutine
// demuxes responses by qid — they arrive in the server's completion order,
// not send order. Every response is MAC-verified against its request
// before the caller sees it. Safe for concurrent use.
type Pipeline struct {
	c    *Client
	conn net.Conn
	pol  policy

	window chan struct{} // in-flight slots
	sendq  chan *Call
	closed chan struct{}

	mu      sync.Mutex
	err     error
	pending map[uint64]*Call
}

// NewPipeline wraps an established connection. The pipeline owns the
// connection: Close tears it down, and any transport error fails every
// in-flight call.
func NewPipeline(c *Client, conn net.Conn) *Pipeline {
	return newPipeline(c, conn, policy{window: maxInflight, retries: maxRetries, backoff: retryBackoff})
}

// newPipeline is NewPipeline under pol.
func newPipeline(c *Client, conn net.Conn, pol policy) *Pipeline {
	p := &Pipeline{
		c:       c,
		conn:    conn,
		pol:     pol,
		window:  make(chan struct{}, pol.window),
		sendq:   make(chan *Call, 2*pol.window),
		closed:  make(chan struct{}),
		pending: make(map[uint64]*Call),
	}
	go p.writeLoop()
	go p.readLoop()
	return p
}

// nextQID allocates a fresh query id from the client's counter (shared
// with NewRequest, so pipelined and serial requests never collide).
func (p *Pipeline) nextQID() uint64 {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	p.c.nextQID++
	return p.c.nextQID
}

// Go signs query with a fresh qid and sends it down the pipeline,
// returning immediately with the in-flight call. It blocks only when the
// in-flight window is full.
func (p *Pipeline) Go(query string) *Call {
	return p.GoTimeout(query, 0)
}

// GoTimeout is Go with a server-enforced per-request deadline (folded
// into the MAC; see NewRequestTimeout).
func (p *Pipeline) GoTimeout(query string, timeout time.Duration) *Call {
	req := p.c.NewRequestTimeout(query, timeout)
	call := &Call{
		kind:    wire.TQuery,
		query:   query,
		timeout: timeout,
		req:     req,
		qid:     req.QID,
		payload: wire.EncodeQuery(req),
		done:    make(chan struct{}),
	}
	p.launch(call)
	return call
}

// Do is the synchronous convenience: Go then Wait.
func (p *Pipeline) Do(query string) (*portal.Response, error) {
	return p.Go(query).Wait()
}

// Attest runs remote attestation through the pipeline (it shares the
// window and qid space with queries) and verifies the quote against the
// expected measurement and nonce (see Client.Attest).
func (p *Pipeline) Attest(expectedMeasurement [32]byte, nonce []byte) error {
	call := &Call{
		kind:    wire.TAttest,
		qid:     p.nextQID(),
		payload: wire.EncodeAttest(nonce),
		done:    make(chan struct{}),
	}
	p.launch(call)
	if _, err := call.Wait(); err != nil {
		return err
	}
	return p.c.Attest(call.quote, expectedMeasurement, nonce)
}

// Health fetches the server's health snapshot (the raw JSON document of
// the THealthInfo payload).
func (p *Pipeline) Health() ([]byte, error) {
	call := &Call{
		kind: wire.THealth,
		qid:  p.nextQID(),
		done: make(chan struct{}),
	}
	p.launch(call)
	if _, err := call.Wait(); err != nil {
		return nil, err
	}
	return call.health, nil
}

// launch claims a window slot, registers the call, and queues its first
// send. A dead pipeline completes the call immediately with its error.
func (p *Pipeline) launch(call *Call) {
	select {
	case p.window <- struct{}{}:
	case <-p.closed:
		call.Resp, call.Err = nil, p.closeErr()
		call.completed = true
		close(call.done)
		return
	}
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		<-p.window
		call.Resp, call.Err = nil, err
		call.completed = true
		close(call.done)
		return
	}
	p.pending[call.qid] = call
	p.armTimerLocked(call)
	p.mu.Unlock()
	p.enqueue(call)
}

func (p *Pipeline) enqueue(call *Call) {
	select {
	case p.sendq <- call:
	case <-p.closed:
		err := p.closeErr() // takes p.mu itself
		p.mu.Lock()
		p.completeLocked(call, nil, err)
		p.mu.Unlock()
	}
}

// armTimerLocked starts the retransmission timer for the next attempt.
func (p *Pipeline) armTimerLocked(call *Call) {
	if p.pol.retryTimeout <= 0 {
		return
	}
	if call.timer != nil {
		call.timer.Stop()
	}
	qid := call.qid
	call.timer = time.AfterFunc(p.pol.retryTimeout, func() { p.retransmit(call, qid) })
}

// retransmit re-sends a call that missed its response deadline, with the
// SAME qid and MAC (at-most-once; see policy.retryTimeout). qid is
// the one the timer was armed for: a timer that fired while dispatch was
// accepting a shed finds the call reissued under a fresh qid and does
// nothing — Stop cannot recall it, and it must neither send before the
// backoff nor spend an attempt of the call's budget.
func (p *Pipeline) retransmit(call *Call, qid uint64) {
	p.mu.Lock()
	if call.completed || p.err != nil || call.qid != qid {
		p.mu.Unlock()
		return
	}
	if call.attempts >= p.pol.retries {
		p.completeLocked(call, nil, fmt.Errorf("%w: qid %d: no response after %d attempts", ErrTimeout, call.qid, call.attempts+1))
		p.mu.Unlock()
		return
	}
	call.attempts++
	call.resent = true
	p.armTimerLocked(call)
	p.mu.Unlock()
	p.enqueue(call)
}

// retryDelay is the wait before re-attempting a call the server shed:
// the backoff doubled once per attempt already made, or the server's
// RetryAfter hint if that is longer, capped at one second, plus up to half
// of itself again in jitter — which de-synchronises a herd of shed clients
// that would otherwise all honor the same hint at once. jitter(n) returns
// a value in [0, n) (rand.Int63n outside tests).
func retryDelay(backoff time.Duration, attempts int, retryAfter time.Duration, jitter func(int64) int64) time.Duration {
	if attempts > 10 {
		attempts = 10 // past the one-second cap for any backoff of 1ms or more
	}
	delay := backoff << attempts
	if retryAfter > delay {
		delay = retryAfter
	}
	if delay > time.Second {
		delay = time.Second
	}
	return delay + time.Duration(jitter(int64(delay)/2+1))
}

// reissueLocked re-signs a shed call under a FRESH qid: the shed was
// endorsed and cached under the old one, so re-sending it would replay the
// refusal forever instead of re-attempting admission. The shed IS the
// response to the old qid, which is unregistered here — a second copy of
// the shed (a network duplicate, or the cached shed replayed to a
// retransmission that crossed it) then finds no call and drops like every
// other late duplicate, instead of reaching the sequence tracker twice and
// reading as a rollback. The call stays registered, now under the fresh
// qid, so a dying pipeline still fails it.
func (p *Pipeline) reissueLocked(call *Call) {
	if call.timer != nil {
		call.timer.Stop() // nothing more is coming for the dead qid
	}
	delete(p.pending, call.qid)
	req := p.c.NewRequestTimeout(call.query, call.timeout)
	call.req = req
	call.qid = req.QID
	call.payload = wire.EncodeQuery(req)
	call.attempts++
	call.resent = false
	p.pending[call.qid] = call
}

// sendReissued sends a reissued call once its backoff has passed.
func (p *Pipeline) sendReissued(call *Call) {
	p.mu.Lock()
	if call.completed || p.err != nil {
		p.mu.Unlock()
		return
	}
	p.armTimerLocked(call)
	p.mu.Unlock()
	p.enqueue(call)
}

// completeLocked finishes a call exactly once: result recorded, timer
// stopped, qid unregistered, window slot released, waiter woken.
func (p *Pipeline) completeLocked(call *Call, resp *portal.Response, err error) {
	if call.completed {
		return
	}
	call.completed = true
	if call.timer != nil {
		call.timer.Stop()
	}
	delete(p.pending, call.qid)
	call.Resp, call.Err = resp, err
	<-p.window
	close(call.done)
}

func (p *Pipeline) closeErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return ErrPipelineClosed
}

// fatal kills the pipeline: records the first error, fails every pending
// call with it, and closes the connection (unblocking both loops).
func (p *Pipeline) fatal(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
		close(p.closed)
	}
	err = p.err
	for _, call := range p.pending {
		p.completeLocked(call, nil, err)
	}
	p.mu.Unlock()
	p.conn.Close()
}

// Close tears the pipeline down; in-flight calls fail with
// ErrPipelineClosed.
func (p *Pipeline) Close() error {
	p.fatal(fmt.Errorf("%w: closed by caller", ErrPipelineClosed))
	return nil
}

// writeLoop serializes frames onto the socket, draining every queued call
// before paying for a flush so a burst of sends shares syscalls.
func (p *Pipeline) writeLoop() {
	bw := bufio.NewWriter(p.conn)
	writeOne := func(call *Call) error {
		p.mu.Lock()
		f := wire.Frame{Type: call.kind, QID: call.qid, Payload: call.payload}
		skip := call.completed
		p.mu.Unlock()
		if skip {
			return nil
		}
		return wire.WriteFrame(bw, f)
	}
	for {
		select {
		case call := <-p.sendq:
			if err := writeOne(call); err != nil {
				p.fatal(fmt.Errorf("%w: write: %v", ErrPipelineClosed, err))
				return
			}
			for drained := false; !drained; {
				select {
				case next := <-p.sendq:
					if err := writeOne(next); err != nil {
						p.fatal(fmt.Errorf("%w: write: %v", ErrPipelineClosed, err))
						return
					}
				default:
					drained = true
				}
			}
			if err := bw.Flush(); err != nil {
				p.fatal(fmt.Errorf("%w: write: %v", ErrPipelineClosed, err))
				return
			}
		case <-p.closed:
			return
		}
	}
}

// readLoop demuxes response frames to their calls until the connection
// fails (a connection-level refusal in dispatch closes it).
func (p *Pipeline) readLoop() {
	br := bufio.NewReader(p.conn)
	for {
		f, err := wire.ReadFrame(br, maxResponse)
		if err != nil {
			p.fatal(fmt.Errorf("%w: read: %v", ErrPipelineClosed, err))
			return
		}
		p.dispatch(f)
	}
}

// answerTo maps each request frame type to the one response type that
// answers it (TError can refuse any of them).
var answerTo = map[wire.Type]wire.Type{
	wire.TQuery:  wire.TResult,
	wire.TAttest: wire.TQuote,
	wire.THealth: wire.THealthInfo,
}

// dispatch routes one response frame to its pending call.
func (p *Pipeline) dispatch(f wire.Frame) {
	if f.Type == wire.TError && f.QID == 0 {
		// Client qids start at 1, so qid 0 addresses the connection: the
		// server refused it (bytes that are not a frame, an unknown version,
		// the connection cap) and is closing. Every pending and later call
		// gets the refusal's text.
		p.fatal(fmt.Errorf("%w: server refused: %s", ErrPipelineClosed, f.Payload))
		return
	}
	p.mu.Lock()
	call := p.pending[f.QID]
	p.mu.Unlock()
	if call == nil {
		// A late duplicate (the first copy of a retransmitted call already
		// completed it) or a response to an abandoned attempt. At-most-once
		// holds server-side; nothing to do here.
		return
	}
	if f.Type != wire.TError && f.Type != answerTo[call.kind] {
		// The frame type is outside every MAC: a quote or health frame
		// relabelled onto a query's qid must fail the call, not complete it
		// with an empty, unverified outcome.
		p.mu.Lock()
		p.completeLocked(call, nil, fmt.Errorf("client: qid %d: %v request answered with a %v frame", f.QID, call.kind, f.Type))
		p.mu.Unlock()
		return
	}
	switch f.Type {
	case wire.TResult:
		resp, err := wire.DecodeResult(f.QID, f.Payload)
		if err != nil {
			p.mu.Lock()
			p.completeLocked(call, nil, err)
			p.mu.Unlock()
			return
		}
		verr := p.c.VerifyResponse(call.req, resp)
		var oe *govern.OverloadedError
		if errors.As(verr, &oe) {
			p.mu.Lock()
			if !call.completed && call.attempts < p.pol.retries {
				// Wait off the reader goroutine, so one shed call never
				// stalls the window for the others.
				delay := retryDelay(p.pol.backoff, call.attempts, oe.RetryAfter, rand.Int63n)
				p.reissueLocked(call)
				time.AfterFunc(delay, func() { p.sendReissued(call) })
			} else {
				p.completeLocked(call, resp, verr)
			}
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		p.completeLocked(call, resp, verr)
		p.mu.Unlock()
	case wire.TQuote:
		q, err := wire.DecodeQuote(f.Payload)
		p.mu.Lock()
		call.quote = q
		p.completeLocked(call, nil, err)
		p.mu.Unlock()
	case wire.THealthInfo:
		p.mu.Lock()
		call.health = append([]byte(nil), f.Payload...)
		p.completeLocked(call, nil, nil)
		p.mu.Unlock()
	case wire.TError:
		msg := string(f.Payload)
		se := &ServerError{Msg: msg}
		if tl, ok := wire.ParseTooLarge(msg); ok {
			se.err = tl
		} else if strings.Contains(msg, portal.ErrReplayedQID.Error()) {
			se.err = portal.ErrReplayedQID
		}
		p.mu.Lock()
		if se.err == portal.ErrReplayedQID && call.resent {
			// Our retransmission raced the original execution; the real
			// response is still coming under this qid. Keep waiting.
			p.mu.Unlock()
			return
		}
		// Otherwise the qid was spent before this call sent it — by an
		// earlier client under the same id — and nothing else will answer.
		p.completeLocked(call, nil, se)
		p.mu.Unlock()
	}
}
