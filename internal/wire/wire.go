// Package wire implements VeriDB's length-prefixed binary wire protocol,
// the only encoding on the server→portal→client path. A connection
// carries independent frames, each
// tagged with a query id (qid), so many requests can be in flight at once
// and responses may return out of order — the portal's replay window and
// the client's qid/MAC reuse already make retries at-most-once, and this
// framing merely exposes that concurrency on the wire.
//
// Frame layout (all integers little-endian):
//
//	offset size field
//	0      2    magic 0xD6 0x42 ("VB" with the high bit set on the V, so
//	            no text protocol's first byte collides with it)
//	2      1    protocol version (currently 1)
//	3      1    frame type
//	4      8    qid — matches responses to requests; 0 for connection-level
//	12     4    payload length
//	16     n    payload (type-specific codec, see codec.go)
//
// The MAC scheme is the portal's: requests carry the exact
// portal.SignRequestTimeout bytes and responses the exact
// portal.SignResponse bytes, so the framing adds nothing to the security
// argument.
//
// Decode errors are typed: ErrBadMagic, ErrBadVersion, ErrBadType,
// ErrTruncated, ErrBadPayload, and *TooLargeError (wrapping ErrTooLarge)
// for frames beyond the size cap.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Frame geometry and protocol constants.
const (
	// Magic0 and Magic1 open every frame; anything else draws ErrBadMagic.
	Magic0 = 0xD6
	Magic1 = 0x42
	// Version is the protocol version this package speaks. A frame with a
	// different version is refused with ErrBadVersion; the refusal names
	// the server's version so a future client can downgrade.
	Version = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 16
	// DefaultMaxPayload caps a frame's payload when the caller passes no
	// limit of its own (1 MiB).
	DefaultMaxPayload = 1 << 20
)

// Type tags a frame's payload codec.
type Type byte

// Frame types. Requests flow client→server, their paired responses
// server→client; TError answers any request the server could not produce
// an authenticated response for (bad payload, unknown client, replay).
const (
	// TQuery is an authenticated query request (codec: EncodeQuery).
	TQuery Type = 1
	// TResult is a sequenced, MAC-endorsed query response (EncodeResult).
	TResult Type = 2
	// TAttest requests an attestation quote over a nonce (EncodeAttest).
	TAttest Type = 3
	// TQuote carries the attestation quote (EncodeQuote).
	TQuote Type = 4
	// THealth requests the health snapshot (empty payload).
	THealth Type = 5
	// THealthInfo carries the health snapshot as a JSON document (the
	// health channel is diagnostic, not hot-path).
	THealthInfo Type = 6
	// TError is an unauthenticated refusal: a human-readable message for
	// requests with no authenticated response (authorisation failures,
	// malformed payloads, over-limit frames). Addressed to qid 0 it refuses
	// the connection itself (bad magic, unsupported version, connection
	// cap) and the server closes behind it.
	TError Type = 7
)

func (t Type) String() string {
	switch t {
	case TQuery:
		return "query"
	case TResult:
		return "result"
	case TAttest:
		return "attest"
	case TQuote:
		return "quote"
	case THealth:
		return "health"
	case THealthInfo:
		return "health-info"
	case TError:
		return "error"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

// Typed decode errors. Every failure from this package's decoders wraps
// exactly one of these sentinels (TooLargeError wraps ErrTooLarge), so
// callers can classify without string matching and fuzzing can assert the
// contract "typed error or valid frame, never a panic".
var (
	// ErrBadMagic means the bytes do not open a binary frame.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrBadVersion means the frame speaks a protocol version this build
	// does not.
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrBadType means the frame type byte is not a known frame type.
	ErrBadType = errors.New("wire: unknown frame type")
	// ErrTruncated means the input ended mid-header or mid-payload.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadPayload means a payload failed its type-specific codec.
	ErrBadPayload = errors.New("wire: malformed payload")
	// ErrTooLarge is the sentinel under every *TooLargeError.
	ErrTooLarge = errors.New("wire: message too large")
)

// TooLargeError is the typed refusal for a frame whose declared payload
// exceeds the size cap. Size is 0 when only the violation, not the full
// size, is known (a refusal parsed back from its message). It unwraps to
// ErrTooLarge.
type TooLargeError struct {
	Limit int
	Size  int
}

// tooLargeMarker is the machine-parseable core of the refusal message; it
// survives the trip through TError's string payload so clients can
// recover the typed error with ParseTooLarge.
const tooLargeMarker = "-byte message limit"

func (e *TooLargeError) Error() string {
	if e.Size > 0 {
		return fmt.Sprintf("wire: request of %d bytes exceeds %d%s", e.Size, e.Limit, tooLargeMarker)
	}
	return fmt.Sprintf("wire: request exceeds %d%s", e.Limit, tooLargeMarker)
}

// Unwrap lets errors.Is(err, ErrTooLarge) match the typed refusal.
func (e *TooLargeError) Unwrap() error { return ErrTooLarge }

// ParseTooLarge recovers a typed *TooLargeError from an error message that
// crossed the wire as a TError string. ok is false when the
// message does not carry the over-limit marker.
func ParseTooLarge(msg string) (*TooLargeError, bool) {
	i := strings.Index(msg, tooLargeMarker)
	if i < 0 {
		return nil, false
	}
	// The limit is the digit run ending at the marker.
	j := i
	for j > 0 && msg[j-1] >= '0' && msg[j-1] <= '9' {
		j--
	}
	if j == i {
		return nil, false
	}
	limit, err := strconv.Atoi(msg[j:i])
	if err != nil {
		return nil, false
	}
	return &TooLargeError{Limit: limit}, true
}

// Frame is one decoded wire frame.
type Frame struct {
	Type    Type
	QID     uint64
	Payload []byte
}

// validType reports whether t is a known frame type.
func validType(t Type) bool { return t >= TQuery && t <= TError }

// AppendHeader appends the 16-byte header for a frame of type t, query id
// qid and payload length n.
func AppendHeader(dst []byte, t Type, qid uint64, n int) []byte {
	var h [HeaderSize]byte
	h[0] = Magic0
	h[1] = Magic1
	h[2] = Version
	h[3] = byte(t)
	binary.LittleEndian.PutUint64(h[4:12], qid)
	binary.LittleEndian.PutUint32(h[12:16], uint32(n))
	return append(dst, h[:]...)
}

// AppendFrame appends a complete encoded frame.
func AppendFrame(dst []byte, t Type, qid uint64, payload []byte) []byte {
	dst = AppendHeader(dst, t, qid, len(payload))
	return append(dst, payload...)
}

// decodeHeader validates a 16-byte header, returning the frame skeleton
// (no payload) and the declared payload length.
func decodeHeader(h []byte, maxPayload int) (Frame, int, error) {
	if h[0] != Magic0 || h[1] != Magic1 {
		return Frame{}, 0, fmt.Errorf("%w: 0x%02x 0x%02x", ErrBadMagic, h[0], h[1])
	}
	if h[2] != Version {
		return Frame{}, 0, fmt.Errorf("%w: peer speaks v%d, this build speaks v%d", ErrBadVersion, h[2], Version)
	}
	t := Type(h[3])
	if !validType(t) {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrBadType, h[3])
	}
	f := Frame{Type: t, QID: binary.LittleEndian.Uint64(h[4:12])}
	n := binary.LittleEndian.Uint32(h[12:16])
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if n > uint32(maxPayload) {
		return f, 0, &TooLargeError{Limit: maxPayload, Size: HeaderSize + int(n)}
	}
	return f, int(n), nil
}

// DecodeFrame decodes one frame from the front of buf, returning the frame
// and the number of bytes consumed. All errors are typed; a *TooLargeError
// still carries the frame's type and qid so a server can address its
// refusal.
func DecodeFrame(buf []byte, maxPayload int) (Frame, int, error) {
	if len(buf) < HeaderSize {
		return Frame{}, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(buf), HeaderSize)
	}
	f, n, err := decodeHeader(buf[:HeaderSize], maxPayload)
	if err != nil {
		return f, 0, err
	}
	if len(buf) < HeaderSize+n {
		return f, 0, fmt.Errorf("%w: %d payload bytes of %d", ErrTruncated, len(buf)-HeaderSize, n)
	}
	f.Payload = buf[HeaderSize : HeaderSize+n]
	return f, HeaderSize + n, nil
}

// ReadFrame reads one frame from r. io.EOF before any header byte is
// returned verbatim (clean connection close); any other short read maps to
// ErrTruncated. On a *TooLargeError the returned frame carries the
// offending type and qid (payload unread) so the caller can refuse it by
// address before closing the connection.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	h, err := readHeader(r)
	if err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return Frame{}, fmt.Errorf("%w: connection closed mid-header", ErrTruncated)
		}
		return Frame{}, err
	}
	f, n, err := decodeHeader(h, maxPayload)
	if err != nil {
		return f, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("%w: connection closed mid-payload", ErrTruncated)
		}
	}
	return f, nil
}

// readHeader reads the next HeaderSize bytes of r, with io.ReadFull's
// errors. From a *bufio.Reader — what the server and the client read
// through — the header is peeked in the reader's own buffer, good until r
// is read again, and never copied to the heap.
func readHeader(r io.Reader) ([]byte, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		h := make([]byte, HeaderSize)
		n, err := io.ReadFull(r, h)
		return h[:n], err
	}
	h, err := br.Peek(HeaderSize)
	br.Discard(len(h)) // peeked, so buffered: cannot fail
	if err == io.EOF && len(h) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return h, err
}

// WriteFrame writes one frame to w. Callers batching many frames should
// hand in a buffered writer and flush once per quiescence, not per frame —
// that amortisation is most of the binary path's throughput win. Into a
// *bufio.Writer the header is built in the writer's free space, in place.
func WriteFrame(w io.Writer, f Frame) error {
	var h []byte
	if bw, ok := w.(*bufio.Writer); ok {
		h = bw.AvailableBuffer()
	}
	if _, err := w.Write(AppendHeader(h, f.Type, f.QID, len(f.Payload))); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}
