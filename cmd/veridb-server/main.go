// Command veridb-server exposes a VeriDB instance over TCP with the
// paper's client protocol (Fig. 2) in one encoding: the length-prefixed
// binary frames of internal/wire, pipelined per connection — many
// MAC-authenticated requests in flight, responses returned in completion
// order and matched by qid (see internal/server and DESIGN.md "Wire
// protocol").
//
// Frame types (16-byte header: magic, version, type, qid, length):
//
//	→ TAttest  nonce                          ← TQuote  measurement, key, nonce, signature
//	→ TQuery   client, query, timeout, MAC    ← TResult seq, columns, typed rows, affected, err, quarantined, MAC
//	→ THealth  (empty)                        ← THealthInfo  JSON health document
//	                                          ← TError  unauthenticated refusal; qid 0 = the connection is refused and closes
//
// To talk to a running server by hand use veridb-cli -addr host:port
// -client id:hexkey (a query needs an HMAC nobody computes by hand).
//
// Clients are provisioned with -client id:hexkey (repeatable).
//
// Hardening: per-connection read/write deadlines (-io-timeout), a 1 MiB
// cap on a request frame's payload answered with a typed error instead of
// a silent drop, a connection cap (-max-conns) answered with a
// connection-level refusal frame, at most 64 requests executing per
// connection, the release of a pinned snapshot idle for five minutes, and
// graceful drain on SIGINT/SIGTERM (stop accepting, wait for in-flight
// connections up to -drain-timeout).
package main

import (
	"encoding/hex"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"veridb"
	"veridb/internal/server"
)

type clientFlags []string

func (c *clientFlags) String() string { return strings.Join(*c, ",") }
func (c *clientFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7788", "listen address")
	verifyEvery := flag.Int("verify-every", 1000, "background verifier pacing")
	partitions := flag.Int("rsws", 16, "RSWS partitions")
	tableShards := flag.Int("table-shards", 1, "hash shards per table (1 = unsharded)")
	dataDir := flag.String("data-dir", "", "authenticated durable storage directory (empty = in-memory only)")
	stmtTimeout := flag.Duration("statement-timeout", 0, "per-statement execution deadline (0 = none)")
	memBudget := flag.Int64("mem-budget", 0, "process memory budget for query state, bytes (0 = track only)")
	maxConcurrent := flag.Int("max-concurrent", 0, "maximum statements executing at once; the excess is shed at once (0 = no admission control)")
	initSQL := flag.String("init", "", "semicolon-separated SQL to run at startup")
	maxConns := flag.Int("max-conns", 256, "maximum concurrent connections (0 = unlimited)")
	ioTimeout := flag.Duration("io-timeout", 5*time.Minute, "per-connection read/write deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown wait for in-flight connections")
	var clients clientFlags
	flag.Var(&clients, "client", "client credential id:hexkey (repeatable)")
	flag.Parse()

	db, err := veridb.Open(veridb.Config{
		RSWSPartitions: *partitions,
		VerifyEveryOps: *verifyEvery,
		TableShards:    *tableShards,
		DataDir:        *dataDir,

		StatementTimeout:        *stmtTimeout,
		MemBudget:               *memBudget,
		MaxConcurrentStatements: *maxConcurrent,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if *dataDir != "" {
		if qerr := db.QuarantineError(); qerr != nil {
			// Recovery found tamper: stay up to serve authenticated
			// quarantine responses (the §5.1 containment posture), but make
			// the operator-visible state unmissable.
			log.Printf("WARNING: recovery quarantined the instance: %v", qerr)
		} else {
			log.Printf("recovered durable state from %s (wal seq %d)", *dataDir, db.WALNextSeq())
		}
	}
	for _, c := range clients {
		id, keyHex, ok := strings.Cut(c, ":")
		if !ok {
			log.Fatalf("bad -client %q (want id:hexkey)", c)
		}
		key, err := hex.DecodeString(keyHex)
		if err != nil {
			log.Fatalf("bad key for client %q: %v", id, err)
		}
		db.ProvisionClient(id, key)
	}
	if *initSQL != "" {
		for _, stmt := range strings.Split(*initSQL, ";") {
			if strings.TrimSpace(stmt) == "" {
				continue
			}
			if _, err := db.Exec(stmt); err != nil {
				log.Fatalf("init statement %q: %v", stmt, err)
			}
		}
	}

	srv, err := server.New(server.Config{
		DB:        db,
		IOTimeout: *ioTimeout,
		MaxConns:  *maxConns,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("veridb-server listening on %s (%d clients provisioned)", ln.Addr(), len(clients))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-stop
		log.Printf("received %v: draining connections", sig)
		ln.Close() // unblocks Accept; in-flight sessions finish
	}()

	if err := srv.Serve(ln); err != nil {
		log.Print(err)
	}
	if srv.Drain(*drainTimeout) {
		log.Print("drained; shutting down")
	} else {
		log.Printf("drain timeout (%v) elapsed with connections still open", *drainTimeout)
	}
}
