// Package server hosts VeriDB's TCP front end: the connection loop that
// exposes a veridb.DB over the paper's client protocol (Fig. 2) in the
// length-prefixed binary framing of internal/wire — the only encoding the
// server speaks. Each connection is pipelined: a reader goroutine demuxes
// frames onto a bounded set of handler goroutines that live as long as the
// connection and a single writer goroutine serializes completions, so
// responses may return out of order, matched to requests by qid.
//
// Every refusal is a wire.TError frame. One addressed to a request's qid
// answers that request and the connection keeps serving; one addressed to
// qid 0 (client qids start at 1) is connection-level — bytes that are not
// a frame, an unknown protocol version, the connection cap — and the
// connection closes behind it.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"veridb"
	"veridb/internal/portal"
	"veridb/internal/wire"
)

// Config tunes the front end. Zero values take the documented defaults.
type Config struct {
	// DB is the database instance to serve. Required.
	DB *veridb.DB
	// IOTimeout is the per-read and per-write deadline (0 = none).
	IOTimeout time.Duration
	// MaxConns caps concurrent connections (0 = unlimited); excess
	// connections get a qid-0 TError refusal, never a silent RST.
	MaxConns int
}

// maxInflight bounds per-connection pipelined query handlers. The
// database's own admission gate (if configured) still sheds beyond its
// slots; this bound keeps one connection from spawning unbounded
// goroutines regardless.
const maxInflight = 64

// Server is the connection-handling state shared by every session.
type Server struct {
	db *veridb.DB
	// maxMessage (wire.DefaultMaxPayload) caps one request frame's payload
	// and maxInflight (the constant) a connection's handlers; tests
	// shorten them.
	maxMessage  int
	maxInflight int
	ioTimeout   time.Duration
	sem         chan struct{} // connection-cap semaphore (nil = uncapped)

	mu      sync.Mutex
	running int           // accept loops and sessions not yet returned
	idle    chan struct{} // what a Drain waits on; closed when running hits 0
}

// track counts an accept loop or a session in or out. A sync.WaitGroup
// cannot do this job: Serve's Add for a new session may run beside Drain's
// Wait with the count at zero, which the WaitGroup contract forbids.
func (s *Server) track(delta int) {
	s.mu.Lock()
	if s.running += delta; s.running == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// New builds a server over an open database.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	s := &Server{
		db:          cfg.DB,
		maxMessage:  wire.DefaultMaxPayload,
		maxInflight: maxInflight,
		ioTimeout:   cfg.IOTimeout,
	}
	if cfg.MaxConns > 0 {
		s.sem = make(chan struct{}, cfg.MaxConns)
	}
	return s, nil
}

// Serve accepts connections until the listener closes, then returns nil.
// Callers drain in-flight sessions with Drain.
func (s *Server) Serve(ln net.Listener) error {
	s.track(1)
	defer s.track(-1)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				// Over capacity: a connection-level refusal (qid 0) beats a
				// silent RST; client.Pipeline surfaces its text. Best effort,
				// in one write — the peer is dropped either way.
				if s.ioTimeout > 0 {
					conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
				}
				conn.Write(wire.AppendFrame(nil, wire.TError, 0, []byte("server at connection capacity")))
				conn.Close()
				continue
			}
		}
		s.track(1)
		go func() {
			defer s.track(-1)
			if s.sem != nil {
				defer func() { <-s.sem }()
			}
			s.Handle(conn)
		}()
	}
}

// Drain waits for Serve to have returned and for in-flight connections, up
// to timeout (0 waits forever). It reports whether the server drained fully.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	if s.running == 0 {
		s.mu.Unlock()
		return true
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-idle:
		return true
	case <-expired:
		return false
	}
}

// wireHealth is the THealthInfo payload (JSON; see wire.THealthInfo).
type wireHealth struct {
	Quarantined     bool       `json:"quarantined"`
	Alarm           string     `json:"alarm,omitempty"`
	VerifierRunning bool       `json:"verifierRunning"`
	Epochs          []uint64   `json:"epochs"`
	WALError        string     `json:"walError,omitempty"`
	CheckpointError string     `json:"checkpointError,omitempty"`
	Govern          wireGovern `json:"govern"`
}

// wireGovern is the overload-protection slice of the health response:
// what a capacity planner watches (high-water memory, shed counts) and
// what a load balancer keys on (the in-flight depth).
type wireGovern struct {
	MemUsed            int64 `json:"memUsed"`
	MemLimit           int64 `json:"memLimit"`
	MemHighWater       int64 `json:"memHighWater"`
	MemDenied          int64 `json:"memDenied"`
	InFlight           int64 `json:"inFlight"`
	Shed               int64 `json:"shed"`
	SessionsExpired    int64 `json:"sessionsExpired"`
	SnapshotPins       int   `json:"snapshotPins"`
	ResponseCacheBytes int64 `json:"responseCacheBytes"`
}

func (s *Server) health() wireHealth {
	h := s.db.Health()
	g := s.db.Govern()
	return wireHealth{
		Quarantined:     h.Quarantined,
		Alarm:           h.Alarm,
		VerifierRunning: h.VerifierRunning,
		Epochs:          h.Epochs,
		WALError:        h.WALError,
		CheckpointError: h.CheckpointError,
		Govern: wireGovern{
			MemUsed:            g.MemUsed,
			MemLimit:           g.MemLimit,
			MemHighWater:       g.MemHighWater,
			MemDenied:          g.MemDenied,
			InFlight:           g.Admission.InFlight,
			Shed:               g.Admission.Shed,
			SessionsExpired:    g.SessionsExpired,
			SnapshotPins:       g.SnapshotPins,
			ResponseCacheBytes: g.ResponseCache.Bytes,
		},
	}
}

// Handle runs one pipelined session to completion and closes the
// connection. Three goroutine roles share it:
//
//   - this goroutine reads frames and demuxes: a query goes to an idle
//     handler goroutine, or starts one (at most maxInflight per
//     connection); attest and health are answered inline (they touch no
//     database state worth parallelising).
//   - handler goroutines execute through the portal — which already sheds
//     past the admission gate's slots — and hand their completion to the
//     writer. Completions are written in completion order, not arrival
//     order; the client matches them by qid. A handler serves queries
//     until the connection ends: a goroutine per query would start on a
//     minimum stack and grow it all the way down to vmem every time.
//   - one writer goroutine serializes frames onto the socket, draining
//     every ready completion before each flush so bursts of small
//     responses share syscalls.
//
// Teardown never leaks a goroutine: when the writer dies (peer gone, write
// error) it closes writerDone, unblocking any handler parked on the
// completion channel; when the reader stops it closes the work channel,
// waits out the handlers, closes the completion channel, and the writer
// exits after the drain.
func (s *Server) Handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	out := make(chan wire.Frame, s.maxInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriter(conn)
		for f := range out {
			for {
				if s.ioTimeout > 0 {
					conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
				}
				if err := wire.WriteFrame(bw, f); err != nil {
					return
				}
				// Drain ready completions before paying for a flush.
				var ok bool
				select {
				case f, ok = <-out:
					if !ok {
						bw.Flush()
						return
					}
					continue
				default:
				}
				break
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
		bw.Flush()
	}()

	// send hands a completion to the writer unless the writer is gone —
	// a handler must never park forever on a dead connection.
	send := func(f wire.Frame) bool {
		select {
		case out <- f:
			return true
		case <-writerDone:
			return false
		}
	}
	refuse := func(qid uint64, msg string) bool {
		return send(wire.Frame{Type: wire.TError, QID: qid, Payload: []byte(msg)})
	}

	// work hands a query to a handler. It is unbuffered: a send succeeds
	// only when a handler is idle and receiving.
	work := make(chan portal.Request)
	var handlers sync.WaitGroup
	started := 0
	handle := func(req portal.Request) {
		defer handlers.Done()
		for ok := true; ok; req, ok = <-work {
			resp, serr := s.db.Serve(req)
			if serr != nil {
				// Authorisation failures have no authenticated
				// response.
				refuse(req.QID, serr.Error())
				continue
			}
			send(wire.Frame{Type: wire.TResult, QID: resp.QID, Payload: wire.EncodeResult(resp)})
		}
	}
reading:
	for {
		if s.ioTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ioTimeout))
		}
		f, err := wire.ReadFrame(br, s.maxMessage)
		if err != nil {
			// A header the peer sent but the server cannot accept is refused
			// before the connection closes (the stream position is
			// unrecoverable). An over-limit frame is refused by address —
			// type and qid survive the typed error; bad magic, version or
			// type leave f zero, so the refusal carries qid 0, the
			// connection-level address. A transport failure (EOF, reset,
			// the idle deadline) has nobody left to tell.
			if errors.Is(err, wire.ErrTooLarge) || errors.Is(err, wire.ErrBadMagic) ||
				errors.Is(err, wire.ErrBadVersion) || errors.Is(err, wire.ErrBadType) {
				refuse(f.QID, err.Error())
			}
			break
		}
		switch f.Type {
		case wire.TQuery:
			req, derr := wire.DecodeQuery(f.QID, f.Payload)
			if derr != nil {
				if !refuse(f.QID, "bad request: "+derr.Error()) {
					break reading
				}
				continue
			}
			// Bound pipelining: a connection gets at most maxInflight
			// concurrent handlers; with all of them busy the reader itself
			// waits, exerting backpressure on the socket instead of
			// buffering unbounded goroutines. The admission gate inside
			// the database sheds independently (typed, per-frame, with a
			// RetryAfter hint) once its slots are taken.
			select {
			case work <- req:
				continue
			default:
			}
			if started < s.maxInflight {
				started++
				handlers.Add(1)
				go handle(req)
				continue
			}
			select {
			case work <- req:
			case <-writerDone:
				break reading
			}
		case wire.TAttest:
			nonce, derr := wire.DecodeAttest(f.Payload)
			if derr != nil {
				if !refuse(f.QID, "bad nonce: "+derr.Error()) {
					break reading
				}
				continue
			}
			q := s.db.Attest(nonce)
			if !send(wire.Frame{Type: wire.TQuote, QID: f.QID, Payload: wire.EncodeQuote(q)}) {
				break reading
			}
		case wire.THealth:
			payload, merr := json.Marshal(s.health())
			if merr != nil {
				payload = []byte("{}")
			}
			if !send(wire.Frame{Type: wire.THealthInfo, QID: f.QID, Payload: payload}) {
				break reading
			}
		default:
			if !refuse(f.QID, fmt.Sprintf("unexpected frame type %q", f.Type)) {
				break reading
			}
		}
	}
	close(work)
	handlers.Wait()
	close(out)
	<-writerDone
}
