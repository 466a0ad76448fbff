// Package client implements the user side of VeriDB's trust protocol
// (paper §5.1): remote attestation of the enclave, request signing with
// the pre-exchanged MAC key, response verification, and the rollback
// defence — a compact interval set of received sequence numbers in which
// any repetition is non-repudiable evidence of a rollback attack.
package client

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"sync"
	"time"

	"veridb/internal/enclave"
	"veridb/internal/govern"
	"veridb/internal/portal"
	"veridb/internal/seqset"
)

// Errors raised during response verification.
var (
	// ErrBadMAC means the response was not produced by the enclave holding
	// the pre-exchanged key (or was modified in flight).
	ErrBadMAC = errors.New("client: response MAC invalid")
	// ErrRollback means a sequence number repeated: the server rolled the
	// database back to an earlier state (§5.1). Errors carrying the
	// evidence are *RollbackError values; errors.Is(err, ErrRollback)
	// matches both.
	ErrRollback = errors.New("client: repeated sequence number (rollback attack detected)")
	// ErrWrongQID means the response answers a different request.
	ErrWrongQID = errors.New("client: response does not match request qid")
	// ErrQuarantined means the server returned an authenticated
	// "integrity compromised" response: its verifier raised a tamper
	// alarm and it refuses to endorse results. Unlike ErrBadMAC this is
	// an honest signal — the response MAC verified, with the Quarantined
	// flag covered by the digest.
	ErrQuarantined = errors.New("client: server quarantined after integrity compromise")
)

// ServerError is an authenticated execution error: the response verified
// (MAC, sequence number) and carried the portal's error message. It is
// distinct from transport and integrity failures — the server answered
// honestly that the query failed. A pipeline also reports the server's
// unauthenticated TError refusals of a request as ServerError. When the
// message carries a typed server condition the client recognises
// (govern's overload refusal, wire's too-large refusal, the portal's
// replayed qid), err holds the recovered typed error so errors.Is/As see
// through the string.
type ServerError struct {
	Msg string
	err error
}

func (e *ServerError) Error() string { return "client: server reported: " + e.Msg }

// Unwrap exposes the typed condition recovered from the message, if any,
// so errors.Is(err, govern.ErrOverloaded) matches across the wire.
func (e *ServerError) Unwrap() error { return e.err }

// RollbackError is the non-repudiable evidence of a rollback: the repeated
// sequence number and the interval of previously received numbers that
// already covers it. It unwraps to ErrRollback.
type RollbackError struct {
	Seq    uint64
	Lo, Hi uint64 // received interval already containing Seq
}

func (e *RollbackError) Error() string {
	return fmt.Sprintf("%v: seq %d already in [%d,%d]", ErrRollback, e.Seq, e.Lo, e.Hi)
}

// Unwrap lets errors.Is(err, ErrRollback) match the typed evidence.
func (e *RollbackError) Unwrap() error { return ErrRollback }

// SeqTracker records received sequence numbers as merged intervals (Len,
// Max and Intervals come from seqset.Set). Add returns a *RollbackError on
// any repeat. Out-of-order arrival (network reordering, footnote 1) is
// tolerated. Safe for concurrent use.
type SeqTracker struct{ seqset.Set }

// Add records seq, failing if it was seen before.
func (s *SeqTracker) Add(seq uint64) error {
	if lo, hi, added := s.Set.Add(seq); !added {
		return &RollbackError{Seq: seq, Lo: lo, Hi: hi}
	}
	return nil
}

// Client is one VeriDB user: it holds the pre-exchanged MAC key (as the
// keyed MAC states it signs requests and verifies responses with), a
// query id counter and the sequence tracker. Responses are checked under
// the MAC key alone; attestation binds nothing to it.
type Client struct {
	ID   string
	macs *portal.KeyedMAC

	mu      sync.Mutex
	nextQID uint64
	tracker SeqTracker
}

// New builds a client with the pre-exchanged key (provisioned into the
// enclave out of band).
func New(id string, key []byte) *Client {
	return &Client{ID: id, macs: portal.NewKeyedMAC(append([]byte(nil), key...))}
}

// Attest verifies an enclave quote against the expected measurement and
// the nonce the client chose. It keeps nothing: the quote's key checks no
// later response.
func (c *Client) Attest(q enclave.Quote, expectedMeasurement [32]byte, nonce []byte) error {
	_, err := enclave.VerifyQuote(q, expectedMeasurement, nonce)
	return err
}

// NewRequest signs a query with a fresh qid.
func (c *Client) NewRequest(query string) portal.Request {
	return c.NewRequestTimeout(query, 0)
}

// NewRequestTimeout signs a query with a fresh qid and a per-request
// deadline the server enforces. The timeout is folded into the MAC, so a
// relay cannot strip or stretch it; a zero timeout yields the exact same
// request NewRequest produces.
func (c *Client) NewRequestTimeout(query string, timeout time.Duration) portal.Request {
	c.mu.Lock()
	c.nextQID++
	qid := c.nextQID
	c.mu.Unlock()
	var ms uint64
	if timeout > 0 {
		ms = uint64(timeout.Milliseconds())
		if ms == 0 {
			ms = 1 // sub-millisecond deadlines round up, not off
		}
	}
	mac := c.macs.RequestMAC(c.ID, qid, query, ms)
	return portal.Request{
		ClientID:  c.ID,
		QID:       qid,
		Query:     query,
		TimeoutMS: ms,
		MAC:       mac[:],
	}
}

// NewBeginSnapshotRequest signs a BEGIN SNAPSHOT: the server pins a
// consistent read point for this client's session and returns its commit
// sequence in a single snapshot_seq column. Until the matching COMMIT,
// every query from this client reads that same snapshot and mutating
// statements are rejected.
func (c *Client) NewBeginSnapshotRequest() portal.Request {
	return c.NewRequest("BEGIN SNAPSHOT")
}

// NewCommitSnapshotRequest signs the COMMIT releasing this client's
// pinned snapshot.
func (c *Client) NewCommitSnapshotRequest() portal.Request {
	return c.NewRequest("COMMIT")
}

// VerifyResponse checks a response's MAC against the request and records
// its sequence number, detecting rollbacks (*RollbackError). A verified
// quarantine response returns ErrQuarantined; any other verified response
// with a non-empty ErrMsg is an authenticated execution error, returned
// as a plain error after verification succeeds.
func (c *Client) VerifyResponse(req portal.Request, resp *portal.Response) error {
	if resp.QID != req.QID {
		return fmt.Errorf("%w: got %d want %d", ErrWrongQID, resp.QID, req.QID)
	}
	want := c.macs.ResponseMAC(resp)
	if !hmac.Equal(want[:], resp.MAC) {
		return ErrBadMAC
	}
	if resp.Quarantined {
		// A quarantine response is a fencing signal, not a result: the
		// instance that issued it is being replaced, and its remaining
		// sequence numbers die with it. Recording them would falsely flag
		// the replacement (which resumes at the last *data* response's
		// floor) as a rollback.
		return fmt.Errorf("%w: %s", ErrQuarantined, resp.ErrMsg)
	}
	if err := c.tracker.Add(resp.Seq); err != nil {
		return err
	}
	if resp.ErrMsg != "" {
		se := &ServerError{Msg: resp.ErrMsg}
		if oe, ok := govern.ParseOverloaded(resp.ErrMsg); ok {
			se.err = oe
		}
		return se
	}
	return nil
}

// Tracker exposes the sequence tracker (for recovery floors and tests).
func (c *Client) Tracker() *SeqTracker { return &c.tracker }
