package wal

// Fuzz targets for the decode paths that face untrusted disk bytes. The
// contract under fuzzing is narrow and absolute: arbitrary input yields
// either a valid result or an error wrapping ErrTorn/ErrTamper — never a
// panic, never an untyped error, never an out-of-range consumed count.
// FuzzWALTail holds recovery as a whole to the same contract, behind a
// valid log.
//
// Seed corpus lives in testdata/fuzz/<FuzzName>/ (regenerate with
// VERIDB_UPDATE_GOLDEN=1 go test -run TestGenerateFuzzCorpus ./internal/wal).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"veridb/internal/record"
)

// fuzzKey is the fixed MAC key every fuzz target verifies against; seeds
// in testdata are encoded under it so the valid-decode path gets coverage.
func fuzzKey() []byte { return bytes.Repeat([]byte{0x42}, keySize) }

func typedOrNil(t *testing.T, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrTamper) {
		t.Fatalf("untyped decode error: %v", err)
	}
}

func FuzzWALRecordDecode(f *testing.F) {
	key := fuzzKey()
	var prev [macSize]byte
	f.Add(appendRecord(nil, key, prev, 0, RecStmt, []byte("INSERT INTO t VALUES (1)")))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, minRecordLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, n, err := decodeRecord(data, nonZeroLen(data), key, prev, 0)
		typedOrNil(t, err)
		if err != nil {
			return
		}
		if n < minRecordLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if rec.Seq != 0 {
			t.Fatalf("accepted record with seq %d under wantSeq 0", rec.Seq)
		}
	})
}

// tailPayloads are the acked records of FuzzWALTail's log.
var tailPayloads = []string{
	"CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)",
	"INSERT INTO kv VALUES (1, 'one')",
	"UPDATE kv SET v = 'uno' WHERE k = 1",
}

// tailNext is the payload of the record chained after tailPayloads, which
// seeds may carry: written under the log's key, but never acked.
const tailNext = "DELETE FROM kv WHERE k = 1"

// tailLog is FuzzWALTail's valid log under fuzzKey — header (checkpoint 0,
// base 0) and tailPayloads — and the encoding of tailNext chained after
// it.
func tailLog() (log, next []byte) {
	key := fuzzKey()
	log = encodeWALHeader(key, 0, 0)
	prev := headerMAC(key, 0, 0)
	for seq, p := range tailPayloads {
		log = appendRecord(log, key, prev, uint64(seq), RecStmt, []byte(p))
		prev = chainMAC(key, prev, uint64(seq), RecStmt, []byte(p))
	}
	return log, appendRecord(nil, key, prev, uint64(len(tailPayloads)), RecStmt, []byte(tailNext))
}

// FuzzWALTail opens a data directory whose WAL is a valid, acked log
// followed by a run of zero bytes and then fuzzed bytes — what a crash,
// a file length grown ahead of its records, or an adversary may leave. Open
// never panics; it recovers every acked record and at most the one written
// behind them, or reports ErrTamper; a suffix of zeros alone, of any
// length, is the log's clean end (no torn bytes); and once closed the file
// is exactly the recovered records.
func FuzzWALTail(f *testing.F) {
	key := fuzzKey()
	log, next := tailLog()
	f.Add(uint32(0), []byte{})
	f.Add(uint32(walChunk), []byte{})
	f.Fuzz(func(t *testing.T, zeros uint32, tail []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, keyFile), key, 0o644); err != nil {
			t.Fatal(err)
		}
		suffix := append(make([]byte, zeros%(2*walChunk+1)), tail...)
		path := walPath(dir, 0)
		if err := os.WriteFile(path, append(append([]byte(nil), log...), suffix...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrTamper) {
				t.Fatalf("Open: %v, want a recovery or ErrTamper", err)
			}
			return
		}
		written := append(append([]string(nil), tailPayloads...), tailNext)
		if len(rec.Tail) < len(tailPayloads) || len(rec.Tail) > len(written) {
			t.Fatalf("recovered %d records of %d acked, %d written", len(rec.Tail), len(tailPayloads), len(written))
		}
		for i, r := range rec.Tail {
			if r.Seq != uint64(i) || r.Type != RecStmt || string(r.Payload) != written[i] {
				t.Fatalf("record %d = %+v, want %q", i, r, written[i])
			}
		}
		if nonZeroLen(suffix) == 0 && (len(rec.Tail) != len(tailPayloads) || rec.TornBytes != 0) {
			t.Fatalf("a %d-byte zero suffix recovered %d records with %d torn bytes", len(suffix), len(rec.Tail), rec.TornBytes)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([]byte(nil), log...), next...)
		if want := full[:Boundaries(full)[len(rec.Tail)]]; !bytes.Equal(got, want) {
			t.Fatalf("closed log is %d bytes, want its %d recovered records' %d", len(got), len(rec.Tail), len(want))
		}
	})
}

func FuzzWALHeaderDecode(f *testing.F) {
	key := fuzzKey()
	f.Add(encodeWALHeader(key, 3, 17))
	f.Add([]byte(walMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		ckptID, baseSeq, _, err := decodeWALHeader(data, key)
		typedOrNil(t, err)
		_ = ckptID
		_ = baseSeq
	})
}

func FuzzManifestDecode(f *testing.F) {
	key := fuzzKey()
	m := &Manifest{CheckpointID: 2, BaseSeq: 40, Segments: []SegmentEntry{
		{Table: "kv", Size: 128, MAC: [macSize]byte{1, 2, 3}},
	}}
	f.Add(encodeManifest(m, key))
	f.Add([]byte(manifestMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeManifest(data, key)
		typedOrNil(t, err)
		if err == nil && got == nil {
			t.Fatal("nil manifest with nil error")
		}
	})
}

func FuzzSegmentDecode(f *testing.F) {
	img := &TableImage{
		Name:         "kv",
		Columns:      []record.Column{{Name: "k", Type: record.TypeInt}, {Name: "v", Type: record.TypeText}},
		PrimaryKey:   0,
		ChainColumns: []int{1},
		Rows:         []record.Tuple{{record.Int(1), record.Text("one")}},
	}
	seed, err := encodeSegment(img, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(segMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeSegment(data, 1, "kv")
		typedOrNil(t, err)
		if err == nil && got == nil {
			t.Fatal("nil image with nil error")
		}
	})
}

// TestGenerateFuzzCorpus writes the committed seed corpus: one valid
// encoding and one structurally-plausible-but-broken input per decode
// target, and FuzzWALTail's suffixes (zero runs of 1, 63, 4096 and
// walChunk bytes; a zero length field before a valid record; garbage after
// zeros; a torn record), in the `go test fuzz v1` format. Run with
// VERIDB_UPDATE_GOLDEN=1 to refresh after a format change.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("VERIDB_UPDATE_GOLDEN") == "" {
		t.Skip("set VERIDB_UPDATE_GOLDEN=1 to regenerate the fuzz seed corpus")
	}
	key := fuzzKey()
	var prev [macSize]byte
	img := &TableImage{
		Name:         "kv",
		Columns:      []record.Column{{Name: "k", Type: record.TypeInt}, {Name: "v", Type: record.TypeText}},
		PrimaryKey:   0,
		ChainColumns: []int{1},
		Rows:         []record.Tuple{{record.Int(1), record.Text("one")}},
	}
	validRec := appendRecord(nil, key, prev, 0, RecStmt, []byte("INSERT INTO t VALUES (1)"))
	validMan := encodeManifest(&Manifest{CheckpointID: 2, BaseSeq: 40, Segments: []SegmentEntry{{Table: "kv", Size: 64}}}, key)
	validSeg, err := encodeSegment(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	validHdr := encodeWALHeader(key, 3, 17)
	bytesArg := func(b []byte) string { return "[]byte(" + strconv.Quote(string(b)) + ")\n" }
	tailArgs := func(zeros int, tail []byte) string {
		return "uint32(" + strconv.Itoa(zeros) + ")\n" + bytesArg(tail)
	}
	_, next := tailLog()
	corpus := map[string][]string{
		"FuzzWALRecordDecode": {bytesArg(validRec), bytesArg(validRec[:len(validRec)-5])},
		"FuzzWALHeaderDecode": {bytesArg(validHdr), bytesArg(validHdr[:walHeaderSize-3])},
		"FuzzManifestDecode":  {bytesArg(validMan), bytesArg(validMan[:len(validMan)-5])},
		"FuzzSegmentDecode":   {bytesArg(validSeg), bytesArg(validSeg[:len(validSeg)-5])},
		"FuzzWALTail": {
			tailArgs(1, nil), tailArgs(63, nil), tailArgs(4096, nil), tailArgs(walChunk, nil),
			tailArgs(4, next),
			tailArgs(64, []byte("\xde\xad\xbe\xef garbage after zeros")),
			tailArgs(0, next[:len(next)/2]),
		},
	}
	for name, inputs := range corpus {
		dir := filepath.Join("testdata", "fuzz", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			body := "go test fuzz v1\n" + in
			path := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
