// Command veridb-cli is an interactive SQL shell. By default it runs over
// an embedded VeriDB instance with verification enabled. Meta-commands:
//
//	\verify          run a full verification pass
//	\explain <sql>   show the physical plan for a SELECT
//	\stats           print verification counters and trusted bytes in use
//	\tamper <table>  simulate the adversary (flip bytes of one record)
//	\tables          list tables
//	\quit            exit
//
// With -addr host:port -client id:hexkey it is instead a client of a
// running veridb-server: each statement is signed, sent as a binary frame,
// and printed only after its response MAC and sequence number verify.
// \health prints the server's health document; the meta-commands above
// need the embedded database and say so.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"veridb"
	"veridb/internal/client"
)

// execFunc runs one statement and returns its result plus a note on how it
// was verified (empty for the embedded database).
type execFunc func(query string) (res *veridb.Result, note string, err error)

func main() {
	verifyEvery := flag.Int("verify-every", 1000, "background verifier pacing (ops per page scan; 0 = manual)")
	partitions := flag.Int("rsws", 1, "number of RSWS partitions")
	tableShards := flag.Int("table-shards", 1, "hash shards per table (1 = unsharded)")
	addr := flag.String("addr", "", "talk to a running veridb-server at host:port instead of an embedded database (requires -client)")
	cred := flag.String("client", "", "credential id:hexkey provisioned on the server (with -addr)")
	flag.Parse()

	if *addr != "" {
		p, err := dialServer(*addr, *cred)
		if err != nil {
			fmt.Fprintln(os.Stderr, "veridb-cli:", err)
			os.Exit(1)
		}
		defer p.Close()
		repl(func(cmd string) { remoteMeta(p, cmd) }, func(query string) (*veridb.Result, string, error) {
			resp, err := p.Do(query)
			if err != nil {
				return nil, "", err
			}
			return &veridb.Result{Columns: resp.Columns, Rows: resp.Rows, Affected: resp.Affected},
				fmt.Sprintf(", MAC verified, seq %d", resp.Seq), nil
		})
		return
	}

	db, err := veridb.Open(veridb.Config{
		RSWSPartitions: *partitions,
		VerifyEveryOps: *verifyEvery,
		TableShards:    *tableShards,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "veridb-cli:", err)
		os.Exit(1)
	}
	defer db.Close()

	repl(func(cmd string) { meta(db, cmd) }, func(query string) (*veridb.Result, string, error) {
		res, err := db.Exec(query)
		return res, "", err
	})
}

// dialServer connects to a veridb-server as the client named by cred.
func dialServer(addr, cred string) (*client.Pipeline, error) {
	id, keyHex, ok := strings.Cut(cred, ":")
	if !ok {
		return nil, fmt.Errorf("-addr needs -client id:hexkey (got %q)", cred)
	}
	key, err := hex.DecodeString(keyHex)
	if err != nil {
		return nil, fmt.Errorf("bad key for client %q: %v", id, err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return client.NewPipeline(client.New(id, key), conn), nil
}

// repl reads stdin: \quit ends it, other backslash lines go to meta,
// everything else accumulates until a ';' and goes to exec.
func repl(meta func(cmd string), exec execFunc) {
	fmt.Println("VeriDB shell — SQL statements end with ';'. \\quit to exit.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("veridb> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if name := strings.Fields(trimmed)[0]; name == "\\quit" || name == "\\q" {
				return
			}
			meta(trimmed)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			runSQL(exec, buf.String())
			buf.Reset()
		}
		prompt()
	}
}

// remoteMeta handles backslash commands against a server.
func remoteMeta(p *client.Pipeline, cmd string) {
	switch name := strings.Fields(cmd)[0]; name {
	case "\\health":
		raw, err := p.Health()
		if err != nil {
			fmt.Println("health:", err)
		} else {
			fmt.Println(string(raw))
		}
	case "\\verify", "\\explain", "\\stats", "\\tables", "\\tamper":
		fmt.Println(name, "is local-only: it needs the embedded database (run without -addr)")
	default:
		fmt.Println("unknown command", name)
	}
}

// meta handles backslash commands against the embedded database.
func meta(db *veridb.DB, cmd string) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\verify":
		start := time.Now()
		if err := db.Verify(); err != nil {
			fmt.Println("VERIFICATION FAILED:", err)
		} else {
			fmt.Printf("verification passed (%v)\n", time.Since(start))
		}
	case "\\stats":
		s := db.Stats()
		fmt.Printf("ops=%d prf=%d pages=%d scans=%d fast=%d rotations=%d alarms=%d ecalls=%d trusted=%dB\n",
			s.Ops, s.PRFEvals, s.PagesAlive, s.Scans, s.FastScans, s.Rotations, s.Alarms, s.ECalls, db.Govern().MemUsed)
	case "\\tables":
		for _, n := range db.TableNames() {
			rows, _ := db.RowCount(n)
			fmt.Printf("%s (%d rows)\n", n, rows)
		}
	case "\\tamper":
		if len(fields) < 2 {
			fmt.Println("usage: \\tamper <table>")
			break
		}
		if err := db.InjectTamper(fields[1]); err != nil {
			fmt.Println("tamper:", err)
		} else {
			fmt.Println("record corrupted in untrusted memory; run \\verify to detect it")
		}
	case "\\explain":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, fields[0]))
		out, err := db.Explain(strings.TrimSuffix(rest, ";"))
		if err != nil {
			fmt.Println("explain:", err)
		} else {
			fmt.Println(out)
		}
	default:
		fmt.Println("unknown command", fields[0])
	}
}

func runSQL(exec execFunc, query string) {
	start := time.Now()
	res, note, err := exec(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(query), ";")))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Printf("(%d rows, %v%s)\n", len(res.Rows), time.Since(start), note)
	} else {
		fmt.Printf("OK, %d rows affected (%v%s)\n", res.Affected, time.Since(start), note)
	}
}
