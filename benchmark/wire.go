package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"veridb"
	"veridb/internal/client"
	"veridb/internal/portal"
	"veridb/internal/server"
	"veridb/internal/wire"
)

// shippedConfig is what cmd/veridb-server opens with when given no flags:
// 16 RSWS partitions, the background verifier at one page per 1000
// operations, everything else zero. Every workload uses exactly this plus
// Seed (and DataDir where stated), so a later change to a default shows up
// as a number rather than as a changed benchmark.
func shippedConfig(seed int64, dataDir string) veridb.Config {
	return veridb.Config{RSWSPartitions: rswsPartitions, VerifyEveryOps: verifyEveryOps, Seed: uint64(seed), DataDir: dataDir}
}

// cmd/veridb-server's flag defaults.
const (
	rswsPartitions = 16
	verifyEveryOps = 1000
)

// verifyIdle runs a full verification pass on a database nobody is
// driving. The background verifier advances one page per verifyEveryOps
// protected operations and holds its partition's scan lock across a pass,
// so on an idle instance a pass in flight never ends and VerifyAll would
// wait for that lock forever. Stopping the verifier completes the pass;
// it is restarted afterwards so the measured run keeps the shipped pacing.
func verifyIdle(db *veridb.DB) error {
	db.StopVerifier()
	if err := db.Verify(); err != nil {
		return err
	}
	return db.StartVerifier(verifyEveryOps)
}

// wireEnv is an in-process server over loopback TCP: internal/server with
// its defaults in front of a veridb.DB, binary framing.
type wireEnv struct {
	db      *veridb.DB
	srv     *server.Server
	ln      net.Listener
	served  chan error
	clients []*wireClient
}

// wireClient is one generator's connection: its own client identity and
// MAC key, one TCP connection, window 1.
type wireClient struct {
	c    *client.Client
	key  []byte
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

// clientKey derives client i's pre-exchanged MAC key.
func clientKey(i int) []byte { return []byte(fmt.Sprintf("benchmark-client-key-%d", i)) }

func clientID(i int) string { return fmt.Sprintf("bench%d", i) }

// startWire serves db on a loopback port and connects n clients.
func startWire(db *veridb.DB, n int) (*wireEnv, error) {
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &wireEnv{db: db, srv: srv, ln: ln, served: make(chan error, 1)}
	go func() { env.served <- srv.Serve(ln) }()
	for i := 0; i < n; i++ {
		key := clientKey(i)
		db.ProvisionClient(clientID(i), key)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			env.stop()
			return nil, err
		}
		env.clients = append(env.clients, &wireClient{
			c: client.New(clientID(i), key), key: key, conn: conn, br: bufio.NewReader(conn),
		})
	}
	return env, nil
}

// stop closes the clients, stops accepting, and waits for every server
// goroutine to end. The database stays open; its owner closes it.
func (e *wireEnv) stop() error {
	for _, wc := range e.clients {
		wc.conn.Close()
	}
	e.ln.Close()
	err := <-e.served
	if !e.srv.Drain(10 * time.Second) {
		return errors.New("server did not drain within 10s")
	}
	return err
}

// roundTrip is one verified request: sign, encode, send and wait, decode,
// MAC-verify. Spans are recorded around each step when sp is non-nil.
func (wc *wireClient) roundTrip(query string, sp *spanBuf, root int32, opID uint64) (*portal.Response, error) {
	h := sp.begin(spanSign, root, opID)
	req := wc.c.NewRequest(query)
	sp.end(h)

	h = sp.begin(spanEncode, root, opID)
	wc.buf = wire.AppendFrame(wc.buf[:0], wire.TQuery, req.QID, wire.EncodeQuery(req))
	sp.end(h)

	h = sp.begin(spanWait, root, opID)
	_, err := wc.conn.Write(wc.buf)
	var f wire.Frame
	if err == nil {
		f, err = wire.ReadFrame(wc.br, responseLimit)
	}
	sp.end(h)
	if err != nil {
		return nil, err
	}
	if f.Type != wire.TResult {
		return nil, fmt.Errorf("server refused qid %d: %s frame: %s", f.QID, f.Type, f.Payload)
	}

	h = sp.begin(spanDecode, root, opID)
	resp, err := wire.DecodeResult(f.QID, f.Payload)
	sp.end(h)
	if err != nil {
		return nil, err
	}

	h = sp.begin(spanVerify, root, opID)
	err = wc.c.VerifyResponse(req, resp)
	sp.end(h)
	return resp, err
}

// responseLimit caps one response frame; results here are at most a
// hundred rows, so the protocol's default request limit is ample.
const responseLimit = wire.DefaultMaxPayload

// wireInstance is what the three wire_* workloads share: a served
// database, its clients, and one statement stream per client.
type wireInstance struct {
	env     *wireEnv
	streams []stream
}

// openWire opens a database with the shipped defaults (plus dataDir when
// non-empty), loads it through load, runs the first VerifyAll, and serves
// it to n clients.
func openWire(seed int64, dataDir string, n int, load func(db *veridb.DB) error) (*wireInstance, error) {
	db, err := veridb.Open(shippedConfig(seed, dataDir))
	if err != nil {
		return nil, err
	}
	if err := load(db); err != nil {
		db.Close()
		return nil, err
	}
	if err := verifyIdle(db); err != nil {
		db.Close()
		return nil, fmt.Errorf("first VerifyAll: %w", err)
	}
	env, err := startWire(db, n)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &wireInstance{env: env}, nil
}

func (w *wireInstance) generators() []generator {
	gens := make([]generator, len(w.env.clients))
	for i, wc := range w.env.clients {
		gens[i] = &wireGen{wc: wc, s: w.streams[i]}
	}
	return gens
}

func (w *wireInstance) counters() counters {
	s, p, g := w.env.db.Stats(), w.env.db.PlanCache(), w.env.db.Govern()
	return counters{
		ops: s.Ops, prfEvals: s.PRFEvals, scans: s.Scans, fastScans: s.FastScans,
		pagesAlive: s.PagesAlive,
		planHits:   p.Hits, planMisses: p.Misses,
		cacheEvictions: g.ResponseCache.Evictions, cacheBytes: g.ResponseCache.Bytes,
		admitted: g.Admission.Admitted, shed: g.Admission.Shed,
	}
}

func (w *wireInstance) verifyAll() error { return verifyIdle(w.env.db) }

// The read workloads have no checks of their own beyond every answer's.
func (w *wireInstance) afterWarmup(string, *metrics) error   { return nil }
func (w *wireInstance) postRun(string, *metrics, bool) error { return nil }

func (w *wireInstance) close() error {
	err := w.env.stop()
	w.env.db.Close()
	return err
}

// execOn adapts a database's Exec to loadKV's signature.
func execOn(db *veridb.DB) func(string) error {
	return func(q string) error {
		_, err := db.Exec(q)
		return err
	}
}
