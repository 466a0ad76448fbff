package core

// The enclave boundary, checked two ways: by what the statement path
// imports — nothing on it reaches the host's OS or network, and only core
// reaches the log — and by how often a statement crosses it (§3.3).

import (
	"fmt"
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"veridb/internal/client"
)

// statementPath is every package a statement runs through inside the
// enclave, from the portal's MAC check to the verified memory.
var statementPath = []string{
	"enclave", "sethash", "vmem", "page", "index", "record",
	"storage", "engine", "plan", "sql", "portal", "govern",
}

// hostImports are the imports that would reach the host from inside the
// enclave: the OS, the network, and the packages that drive them.
var hostImports = []string{
	"os", "net", "syscall",
	"veridb/internal/wal", "veridb/internal/wire", "veridb/internal/server",
}

// TestStatementPathImportsNoHost: no package on the statement path
// directly imports the OS, the network, the log, the wire codec or the
// server. A real SGX build would have to turn each such use into an OCall.
func TestStatementPathImportsNoHost(t *testing.T) {
	for _, name := range statementPath {
		pkg, err := build.ImportDir(filepath.Join("..", name), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, imp := range pkg.Imports {
			for _, host := range hostImports {
				if imp == host || strings.HasPrefix(imp, host+"/") {
					t.Errorf("internal/%s imports %s", name, imp)
				}
			}
		}
	}
}

// TestOnlyCoreImportsWAL: of the module's packages, only core writes the
// log. The repo benchmark, a harness that probes the log's own cost, is
// not part of the program.
func TestOnlyCoreImportsWAL(t *testing.T) {
	root := filepath.Join("..", "..")
	importers := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if rel == "benchmark" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		for _, imp := range pkg.Imports {
			if imp != "veridb/internal/wal" {
				continue
			}
			if rel != filepath.Join("internal", "core") {
				t.Errorf("%s imports internal/wal", rel)
			}
			importers++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if importers != 1 {
		t.Fatalf("%d packages import internal/wal, want core alone", importers)
	}
}

// TestOneCrossingPerStatement is §3.3's colocation claim as a count: a
// statement served through the portal enters the enclave once, however
// many rows it touches, because the engine and storage run inside with
// it. An in-process Execute, already inside, does not cross at all.
func TestOneCrossingPerStatement(t *testing.T) {
	db := openTest(t)
	ecalls := func() int64 { return db.Enclave().Stats().ECalls }

	start := ecalls()
	exec(t, db, `CREATE TABLE c (id INT PRIMARY KEY, v INT)`)
	const rows = 2000
	for lo := 0; lo < rows; lo += 500 {
		var b strings.Builder
		b.WriteString("INSERT INTO c VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d, %d)", i, i)
		}
		exec(t, db, b.String())
	}
	exec(t, db, `SELECT id, v FROM c WHERE v >= 0`)
	if got := ecalls() - start; got != 0 {
		t.Fatalf("in-process Execute crossed the boundary %d times, want 0", got)
	}

	key := []byte("crossing-key")
	db.Enclave().ProvisionMACKey("alice", key)
	alice := client.New("alice", key)
	for _, tc := range []struct {
		name, query string
		rows        int
		affected    int
	}{
		{"point read", `SELECT v FROM c WHERE id = 7`, 1, 0},
		{"point write", `UPDATE c SET v = 0 WHERE id = 7`, 0, 1},
		{"2000-row scan", `SELECT id, v FROM c WHERE v >= 0`, rows, 0},
	} {
		before := ecalls()
		req := alice.NewRequest(tc.query)
		resp, err := db.Portal().Serve(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := alice.VerifyResponse(req, resp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(resp.Rows) != tc.rows || resp.Affected != tc.affected {
			t.Fatalf("%s: %d rows, %d affected, want %d and %d", tc.name, len(resp.Rows), resp.Affected, tc.rows, tc.affected)
		}
		if got := ecalls() - before; got != 1 {
			t.Fatalf("%s crossed the boundary %d times, want once", tc.name, got)
		}
	}
}
