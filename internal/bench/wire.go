package bench

// Wire-protocol benchmark: what pipelining buys on the server's one wire
// protocol. A closed-loop load generator drives authenticated point queries
// over a real TCP socket against the full server stack (internal/server),
// sweeping the in-flight window n on ONE connection: a client.Pipeline
// keeps n MAC-authenticated requests in flight, responses complete out of
// order, and both sides flush once per burst. Window 1 is the serial
// request-response exchange.
//
// Every response is MAC-verified against its request: the frames carry
// typed row images, so verification is the real client check.
//
// Loopback has no propagation delay, so by itself it cannot show what
// pipelining buys: every window collapses to the shared CPU cost of
// executing and endorsing the query. The sweep therefore models link
// latency the standard way — every client Write is delivered one round
// trip after it is issued (RTT, default 500µs, a typical cross-rack
// figure) without blocking the sender. A serial client pays the RTT once
// per request (it waits for each response); a pipelined sender overlaps
// the whole window with one delay. Set RTT negative to measure the raw
// loopback codec cost instead.
//
// The headline is SpeedupBinaryPipelined: the deepest window vs window 1.
// The run hard-fails on any MAC-verification failure and on a goroutine
// leak after drain.

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veridb"
	"veridb/internal/client"
	"veridb/internal/server"
)

// WireConfig sizes the wire-protocol benchmark.
type WireConfig struct {
	// Rows seeds the kv table the point queries hit.
	Rows int
	// Ops is the measured query count per leg (after warmup).
	Ops int
	// Inflights is the window sweep, e.g. {1, 4, 16, 64}.
	Inflights []int
	// RTT is the modeled round-trip link latency paid per client Write
	// (see the package comment). Negative means zero; zero means the
	// 500µs default.
	RTT  time.Duration
	Seed uint64
}

func (c WireConfig) withDefaults() WireConfig {
	if c.Rows == 0 {
		c.Rows = 2000
	}
	if c.Ops == 0 {
		c.Ops = 2000
	}
	if len(c.Inflights) == 0 {
		c.Inflights = []int{1, 4, 16, 64}
	}
	if c.RTT == 0 {
		c.RTT = 500 * time.Microsecond
	} else if c.RTT < 0 {
		c.RTT = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// latencyConn models link latency: every Write is delivered one round
// trip after it was issued, in order, without blocking the sender — the
// bytes are "in flight" while the sender keeps going. A serial client
// still pays the full delay per request (it waits for the response before
// writing again); a pipelined sender overlaps the whole window with one
// delay. The round trip is folded into the request direction; responses
// return undelayed.
type latencyConn struct {
	net.Conn
	rtt  time.Duration
	q    chan delayedChunk
	done chan struct{}
	once sync.Once
}

type delayedChunk struct {
	at  time.Time
	buf []byte
}

func newLatencyConn(conn net.Conn, rtt time.Duration) net.Conn {
	if rtt <= 0 {
		return conn
	}
	l := &latencyConn{
		Conn: conn,
		rtt:  rtt,
		q:    make(chan delayedChunk, 1024),
		done: make(chan struct{}),
	}
	go l.forward()
	return l
}

func (l *latencyConn) forward() {
	for {
		select {
		case c := <-l.q:
			if d := time.Until(c.at); d > 0 {
				time.Sleep(d)
			}
			if _, err := l.Conn.Write(c.buf); err != nil {
				l.once.Do(func() { close(l.done) })
				return
			}
		case <-l.done:
			return
		}
	}
}

func (l *latencyConn) Write(p []byte) (int, error) {
	buf := append([]byte(nil), p...)
	select {
	case l.q <- delayedChunk{at: time.Now().Add(l.rtt), buf: buf}:
		return len(p), nil
	case <-l.done:
		return 0, net.ErrClosed
	}
}

func (l *latencyConn) Close() error {
	l.once.Do(func() { close(l.done) })
	return l.Conn.Close()
}

// WireLeg is one in-flight-window measurement.
type WireLeg struct {
	Inflight int     `json:"inflight"`
	Ops      int     `json:"ops"`
	QPS      float64 `json:"qps"`
	P50US    float64 `json:"p50_us"`
	P99US    float64 `json:"p99_us"`
	// Verified counts MAC-verified responses; it must equal Ops.
	Verified int64 `json:"verified"`
}

// WireRun is the BENCH_wire.json payload.
type WireRun struct {
	Rows  int       `json:"rows"`
	RTTUS float64   `json:"rtt_us"`
	Legs  []WireLeg `json:"legs"`
	// SpeedupBinaryPipelined is QPS(deepest window) divided by QPS(window
	// 1) on the same single connection.
	SpeedupBinaryPipelined float64 `json:"speedup_binary_pipelined"`
	BaselineGoroutines     int     `json:"baseline_goroutines"`
	PostDrainGoroutines    int     `json:"post_drain_goroutines"`
}

// RunWire executes the sweep and returns the measured run. Any
// MAC-verification failure, transport error, or post-drain goroutine leak
// fails the run.
func RunWire(cfg WireConfig) (*WireRun, error) {
	cfg = cfg.withDefaults()
	baselineG := runtime.NumGoroutine()

	db, err := veridb.Open(veridb.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k INT PRIMARY KEY, v INT)`); err != nil {
		return nil, err
	}
	const batch = 500
	for lo := 0; lo < cfg.Rows; lo += batch {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO kv VALUES `)
		for i := lo; i < lo+batch && i < cfg.Rows; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i*7)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			return nil, err
		}
	}
	key := []byte("wire-bench-secret")
	db.ProvisionClient("bench", key)
	c := client.New("bench", key)

	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)

	run := &WireRun{Rows: cfg.Rows, RTTUS: us(cfg.RTT), BaselineGoroutines: baselineG}
	var serial, deepest WireLeg
	for _, inflight := range cfg.Inflights {
		leg, err := runWireLeg(inflight, cfg, c, ln.Addr().String())
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("inflight=%d: %w", inflight, err)
		}
		run.Legs = append(run.Legs, *leg)
		if inflight == 1 {
			serial = *leg
		}
		if inflight >= deepest.Inflight {
			deepest = *leg
		}
	}
	if serial.QPS > 0 {
		run.SpeedupBinaryPipelined = deepest.QPS / serial.QPS
	}

	// Drain and leak-check: every connection goroutine, handler and writer
	// must be gone.
	ln.Close()
	if !srv.Drain(10 * time.Second) {
		return nil, fmt.Errorf("server did not drain after the sweep")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		run.PostDrainGoroutines = runtime.NumGoroutine()
		if run.PostDrainGoroutines <= baselineG {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("goroutine leak after drain: %d -> %d", baselineG, run.PostDrainGoroutines)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return run, nil
}

// runWireLeg measures one window: a closed loop of cfg.Ops point queries
// (after a short unmeasured warmup) from inflight workers sharing one
// pipelined connection, latency per completed call.
func runWireLeg(inflight int, cfg WireConfig, c *client.Client, addr string) (*WireLeg, error) {
	warmup := inflight * 4
	if warmup > 200 {
		warmup = 200
	}
	total := cfg.Ops + warmup
	var next atomic.Int64 // op ticket; < warmup ops are unmeasured

	var mu sync.Mutex // guards lats and runErr
	lats := make([]time.Duration, 0, cfg.Ops)
	var runErr error
	var started time.Time // when the first measured op was issued
	var startOnce sync.Once
	var verified atomic.Int64

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := client.NewPipeline(c, newLatencyConn(conn, cfg.RTT), client.PipelineConfig{MaxInflight: inflight})
	defer p.Close()

	worker := func() error {
		for {
			ticket := next.Add(1) - 1
			if ticket >= int64(total) {
				return nil
			}
			measured := ticket >= int64(warmup)
			t0 := time.Now()
			if measured {
				startOnce.Do(func() { started = t0 })
			}
			// Do verifies: MAC, sequence tracking, typed rows.
			resp, err := p.Do(fmt.Sprintf(`SELECT v FROM kv WHERE k = %d`, int(ticket)%cfg.Rows))
			if err != nil {
				return err
			}
			if measured {
				d := time.Since(t0)
				mu.Lock()
				lats = append(lats, d)
				mu.Unlock()
			}
			verified.Add(1)
			if len(resp.Rows) != 1 {
				return fmt.Errorf("point query returned %d rows", len(resp.Rows))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := worker(); err != nil {
				mu.Lock()
				if runErr == nil {
					runErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	wall := time.Since(started)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return &WireLeg{
		Inflight: inflight,
		Ops:      len(lats),
		Verified: verified.Load() - int64(warmup),
		QPS:      float64(len(lats)) / wall.Seconds(),
		P50US:    us(percentileDur(lats, 0.50)),
		P99US:    us(percentileDur(lats, 0.99)),
	}, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func percentileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
