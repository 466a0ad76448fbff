// Package wal is VeriDB's authenticated durable storage layer: a
// sequence-chained, MACed write-ahead log plus immutable checkpoint
// segments with a MACed manifest. The disk is untrusted under the paper's
// threat model (§2, §3.1) — persistence is just another adversarial
// memory — so every durable byte re-enters the enclave only through MAC
// and sequence checks, exactly as pages in vmem re-enter through the
// RSWS protocol.
//
// The chain rule: each WAL record's MAC covers its predecessor's MAC (the
// first record chains to the file header's MAC, which binds the
// checkpoint ID and base sequence number). Truncating the middle of the
// log, reordering records, or splicing a log tail onto the wrong
// checkpoint all break the chain. Only the tail can be lost — the one
// corruption a genuine crash can produce — and torn tails are
// distinguished from tampering by position: a structurally incomplete or
// MAC-invalid suffix at the end of the log's non-zero bytes is a crash
// artifact (those bytes were never acked, because appends ack only after
// fsync returns), while any chain violation with further non-zero bytes
// behind it is evidence of tampering and must quarantine, not truncate.
// The log file's length grows in walChunk steps, so its end is the end of
// its non-zero bytes, not the end of the file: an all-zero remainder at a
// record boundary is the clean end of the log.
package wal

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Record types.
const (
	// RecStmt is one logged SQL statement: the payload is the statement
	// text, replayed through the parser and executor on recovery.
	RecStmt byte = 1
)

// macSize is the length of every chain MAC (HMAC-SHA256).
const macSize = sha256.Size

// recHeaderSize is the fixed prefix of one record body: seq (8) + type (1).
const recHeaderSize = 9

// minRecordLen is the smallest legal record body: header + empty payload +
// MAC.
const minRecordLen = recHeaderSize + macSize

// MaxRecordLen bounds one record body. A length prefix beyond it with the
// bytes actually present is structural corruption, not a big record.
const MaxRecordLen = 16 << 20

// ErrTamper is wrapped by every error that means the durable state was
// modified by something other than a crash: chain MAC violations with
// records behind them, manifest or segment MAC mismatches, and files
// whose absence cannot be explained by the checkpoint protocol's write
// ordering. Callers must route it into the quarantine path — a tampered
// image is never truncated into service.
var ErrTamper = errors.New("wal: durable state tampered")

// ErrTorn is wrapped by classifications of a crash-torn suffix. It is
// internal to recovery (torn tails are dropped, not surfaced), but typed
// so tests can assert the classification.
var ErrTorn = errors.New("wal: torn tail")

// Record is one verified WAL record.
type Record struct {
	Seq     uint64
	Type    byte
	Payload []byte
}

// macPersonal domain-separates the MAC uses so a record MAC can never be
// replayed as a header or manifest MAC.
const (
	macRecord   = "veridb-wal-record-v1"
	macHeader   = "veridb-wal-header-v1"
	macManifest = "veridb-manifest-v1"
	macSegment  = "veridb-segment-v1"
)

// chainMAC computes a record's MAC: HMAC(key, personal ‖ prevMAC ‖ seq ‖
// type ‖ payload). Folding prevMAC in is the chain rule.
func chainMAC(key []byte, prev [macSize]byte, seq uint64, typ byte, payload []byte) [macSize]byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(macRecord))
	h.Write(prev[:])
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:8], seq)
	b[8] = typ
	h.Write(b[:])
	h.Write(payload)
	var out [macSize]byte
	h.Sum(out[:0])
	return out
}

// appendRecord serialises one record: length prefix, body, chain MAC.
func appendRecord(buf []byte, key []byte, prev [macSize]byte, seq uint64, typ byte, payload []byte) []byte {
	body := recHeaderSize + len(payload) + macSize
	buf = binary.LittleEndian.AppendUint32(buf, uint32(body))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, typ)
	buf = append(buf, payload...)
	mac := chainMAC(key, prev, seq, typ, payload)
	return append(buf, mac[:]...)
}

// decodeRecord parses and authenticates the record at the start of buf,
// returning the record, its MAC (the next record's prev), and the total
// bytes consumed. nonZero is the length of buf up to and including its
// last non-zero byte (see nonZeroLen); buf itself is never trimmed, since
// a valid record's MAC may end in 0x00. Classification is positional:
// when the failure could have been produced by losing a write tail (the
// claimed extent passes end-of-buffer, or every byte behind it is zero),
// the error wraps ErrTorn; when non-zero bytes follow the violation, it
// wraps ErrTamper.
func decodeRecord(buf []byte, nonZero int, key []byte, prev [macSize]byte, wantSeq uint64) (Record, [macSize]byte, int, error) {
	var noMAC [macSize]byte
	if len(buf) < 4 {
		return Record{}, noMAC, 0, fmt.Errorf("%w: %d-byte length fragment", ErrTorn, len(buf))
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf))
	rest := buf[4:]
	if bodyLen > len(rest) {
		// The claimed body extends past the bytes present. Either a torn
		// length field or a torn body — both crash-shaped — unless the
		// length is structurally impossible yet more plausible bytes would
		// have followed; with nothing behind it, torn wins.
		return Record{}, noMAC, 0, fmt.Errorf("%w: record claims %d body bytes, %d present", ErrTorn, bodyLen, len(rest))
	}
	atEOF := 4+bodyLen >= nonZero
	classify := func(detail string, args ...any) error {
		kind := ErrTamper
		if atEOF {
			// A final record that fails structurally or cryptographically
			// is a torn append: appends ack only after fsync, so an acked
			// record cannot be half-present. (A tampered final record is
			// indistinguishable from this and is bounded by the client's
			// §5.1 sequence-number rollback defence.)
			kind = ErrTorn
		}
		return fmt.Errorf("%w: %s", kind, fmt.Sprintf(detail, args...))
	}
	if bodyLen < minRecordLen || bodyLen > MaxRecordLen {
		return Record{}, noMAC, 0, classify("record body length %d outside [%d, %d]", bodyLen, minRecordLen, MaxRecordLen)
	}
	body := rest[:bodyLen]
	seq := binary.LittleEndian.Uint64(body)
	typ := body[recHeaderSize-1]
	payload := body[recHeaderSize : bodyLen-macSize]
	var mac [macSize]byte
	copy(mac[:], body[bodyLen-macSize:])
	want := chainMAC(key, prev, seq, typ, payload)
	if !hmac.Equal(mac[:], want[:]) {
		return Record{}, noMAC, 0, classify("record seq %d chain MAC mismatch", seq)
	}
	if seq != wantSeq {
		// The MAC is valid under the chained predecessor, so the bytes are
		// authentic — but the sequence number disagrees with the chain
		// position. That cannot happen by crash or by writer bug without
		// also breaking the MAC chain; treat as tampering.
		return Record{}, noMAC, 0, fmt.Errorf("%w: record seq %d where %d expected", ErrTamper, seq, wantSeq)
	}
	return Record{Seq: seq, Type: typ, Payload: append([]byte(nil), payload...)}, mac, 4 + bodyLen, nil
}

// nonZeroLen returns the length of buf up to and including its last
// non-zero byte: the extent of a log whose file length runs past its
// records in zero bytes.
func nonZeroLen(buf []byte) int {
	n := len(buf)
	for n > 0 && buf[n-1] == 0 {
		n--
	}
	return n
}

// walMagic opens every WAL file; headerSize is the full fixed header:
// magic (6) + checkpoint ID (8) + base seq (8) + header MAC.
var walMagic = []byte("VWAL1\x00")

const walHeaderSize = 6 + 8 + 8 + macSize

// headerMAC binds a WAL file to its checkpoint: HMAC(key, personal ‖
// magic ‖ ckptID ‖ baseSeq). It doubles as the chain's genesis MAC, so a
// log tail cannot be spliced onto a different checkpoint.
func headerMAC(key []byte, ckptID, baseSeq uint64) [macSize]byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(macHeader))
	h.Write(walMagic)
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], ckptID)
	binary.LittleEndian.PutUint64(b[8:], baseSeq)
	h.Write(b[:])
	var out [macSize]byte
	h.Sum(out[:0])
	return out
}

// encodeWALHeader serialises a WAL file header.
func encodeWALHeader(key []byte, ckptID, baseSeq uint64) []byte {
	buf := make([]byte, 0, walHeaderSize)
	buf = append(buf, walMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, ckptID)
	buf = binary.LittleEndian.AppendUint64(buf, baseSeq)
	mac := headerMAC(key, ckptID, baseSeq)
	return append(buf, mac[:]...)
}

// decodeWALHeader parses and authenticates a WAL file header, returning
// the checkpoint ID, base sequence and genesis MAC. A short header is a
// crash artifact (the file is created and synced before any record is
// acked) and wraps ErrTorn; a complete header that fails its MAC wraps
// ErrTamper.
func decodeWALHeader(buf []byte, key []byte) (ckptID, baseSeq uint64, genesis [macSize]byte, err error) {
	var noMAC [macSize]byte
	if len(buf) < walHeaderSize {
		return 0, 0, noMAC, fmt.Errorf("%w: %d-byte WAL header fragment", ErrTorn, len(buf))
	}
	if string(buf[:6]) != string(walMagic) {
		return 0, 0, noMAC, fmt.Errorf("%w: bad WAL magic %q", ErrTamper, buf[:6])
	}
	ckptID = binary.LittleEndian.Uint64(buf[6:])
	baseSeq = binary.LittleEndian.Uint64(buf[14:])
	var mac [macSize]byte
	copy(mac[:], buf[22:22+macSize])
	want := headerMAC(key, ckptID, baseSeq)
	if !hmac.Equal(mac[:], want[:]) {
		return 0, 0, noMAC, fmt.Errorf("%w: WAL header MAC mismatch (ckpt %d)", ErrTamper, ckptID)
	}
	return ckptID, baseSeq, want, nil
}
