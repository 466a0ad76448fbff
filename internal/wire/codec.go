// Type-specific payload codecs for the binary protocol. Every codec uses
// the same field primitive as the MAC layer (u32 length prefix + bytes,
// little-endian fixed-width integers), and response rows travel as
// record.Encode images — the exact bytes portal.ResponseDigest folds into
// the response MAC — so a client can rebuild the typed tuples and verify
// the endorsement bit-for-bit.
package wire

import (
	"encoding/binary"
	"fmt"
	"strings"

	"veridb/internal/enclave"
	"veridb/internal/portal"
	"veridb/internal/record"
)

// Field primitives: portal.AppendField, and fixed-width integers.

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// reader consumes payload fields with bounds checking; every failure is
// typed ErrTruncated (ran out of bytes) or ErrBadPayload (inconsistent
// structure).
type reader struct {
	b   []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("%w: u32 at offset %d of %d", ErrTruncated, r.off, len(r.b))
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("%w: u64 at offset %d of %d", ErrTruncated, r.off, len(r.b))
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("%w: byte at offset %d of %d", ErrTruncated, r.off, len(r.b))
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint32(len(r.b)-r.off) < n {
		return nil, fmt.Errorf("%w: field of %d bytes with %d remaining", ErrTruncated, n, len(r.b)-r.off)
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v, nil
}

func (r *reader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *reader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(r.b)-r.off)
	}
	return nil
}

// EncodeQuery encodes an authenticated query request. The qid travels in
// the frame header, not the payload; the MAC bytes are exactly
// portal.SignRequestTimeout's output.
func EncodeQuery(req portal.Request) []byte {
	b := make([]byte, 0, 4+len(req.ClientID)+4+len(req.Query)+8+4+len(req.MAC))
	b = portal.AppendField(b, req.ClientID)
	b = portal.AppendField(b, req.Query)
	b = appendU64(b, req.TimeoutMS)
	b = portal.AppendField(b, req.MAC)
	return b
}

// DecodeQuery decodes a TQuery payload; qid comes from the frame header.
func DecodeQuery(qid uint64, payload []byte) (portal.Request, error) {
	r := reader{b: payload}
	req := portal.Request{QID: qid}
	var err error
	if req.ClientID, err = r.str(); err != nil {
		return portal.Request{}, err
	}
	if req.Query, err = r.str(); err != nil {
		return portal.Request{}, err
	}
	if req.TimeoutMS, err = r.u64(); err != nil {
		return portal.Request{}, err
	}
	mac, err := r.bytes()
	if err != nil {
		return portal.Request{}, err
	}
	if len(mac) > 0 {
		req.MAC = append([]byte(nil), mac...)
	}
	if err := r.done(); err != nil {
		return portal.Request{}, err
	}
	return req, nil
}

// EncodeResult encodes a sequenced, endorsed response. Rows are
// record.Encode images — the same bytes the response digest covers — so
// DecodeResult rebuilds tuples the client can MAC-verify.
func EncodeResult(resp *portal.Response) []byte {
	// Sized to hold a point read's answer whole; a larger one grows.
	b := make([]byte, 0, 256)
	b = appendU64(b, resp.Seq)
	b = appendU64(b, uint64(resp.Affected))
	b = portal.AppendField(b, resp.ErrMsg)
	q := byte(0)
	if resp.Quarantined {
		q = 1
	}
	b = append(b, q)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Columns)))
	for _, c := range resp.Columns {
		b = portal.AppendField(b, c)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Rows)))
	for _, row := range resp.Rows {
		b = portal.AppendRowField(b, row)
	}
	b = portal.AppendField(b, resp.MAC)
	return b
}

// DecodeResult decodes a TResult payload; qid comes from the frame header.
func DecodeResult(qid uint64, payload []byte) (*portal.Response, error) {
	r := reader{b: payload}
	resp := &portal.Response{QID: qid}
	var err error
	if resp.Seq, err = r.u64(); err != nil {
		return nil, err
	}
	aff, err := r.u64()
	if err != nil {
		return nil, err
	}
	resp.Affected = int(aff)
	if resp.ErrMsg, err = r.str(); err != nil {
		return nil, err
	}
	q, err := r.byte()
	if err != nil {
		return nil, err
	}
	if q > 1 {
		return nil, fmt.Errorf("%w: quarantine flag %d", ErrBadPayload, q)
	}
	resp.Quarantined = q == 1
	ncols, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each column costs at least its 4-byte length prefix: a count beyond
	// that is a length lie, refused before it becomes an allocation.
	if uint64(ncols)*4 > uint64(len(payload)-r.off) {
		return nil, fmt.Errorf("%w: %d columns in %d bytes", ErrBadPayload, ncols, len(payload)-r.off)
	}
	if ncols > 0 {
		resp.Columns = make([]string, ncols)
		for i := range resp.Columns {
			if resp.Columns[i], err = r.str(); err != nil {
				return nil, err
			}
		}
	}
	nrows, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(nrows)*4 > uint64(len(payload)-r.off) {
		return nil, fmt.Errorf("%w: %d rows in %d bytes", ErrBadPayload, nrows, len(payload)-r.off)
	}
	if nrows > 0 {
		resp.Rows = make([]record.Tuple, nrows)
		// One record.Scratch and one text builder serve every row: a row
		// costs its tuple, its text a share of the builder's string.
		var s record.Scratch
		var text strings.Builder
		for i := range resp.Rows {
			img, err := r.bytes()
			if err != nil {
				return nil, err
			}
			if _, err := s.Decode(img); err != nil {
				return nil, fmt.Errorf("%w: row %d: %v", ErrBadPayload, i, err)
			}
			if !s.Sentinel() {
				resp.Rows[i] = make(record.Tuple, s.Arity())
				_ = s.Tuple(record.AllColumns(s.Arity()), resp.Rows[i], &text) // every column exists
			}
		}
	}
	mac, err := r.bytes()
	if err != nil {
		return nil, err
	}
	if len(mac) > 0 {
		resp.MAC = append([]byte(nil), mac...)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}

// EncodeAttest encodes an attestation request's nonce.
func EncodeAttest(nonce []byte) []byte {
	return portal.AppendField(nil, nonce)
}

// DecodeAttest decodes a TAttest payload.
func DecodeAttest(payload []byte) ([]byte, error) {
	r := reader{b: payload}
	nonce, err := r.bytes()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return append([]byte(nil), nonce...), nil
}

// EncodeQuote encodes an attestation quote.
func EncodeQuote(q enclave.Quote) []byte {
	var b []byte
	b = portal.AppendField(b, q.Measurement[:])
	b = portal.AppendField(b, q.PublicKey)
	b = portal.AppendField(b, q.Nonce)
	b = portal.AppendField(b, q.Signature)
	return b
}

// DecodeQuote decodes a TQuote payload.
func DecodeQuote(payload []byte) (enclave.Quote, error) {
	r := reader{b: payload}
	var q enclave.Quote
	m, err := r.bytes()
	if err != nil {
		return q, err
	}
	if len(m) != len(q.Measurement) {
		return q, fmt.Errorf("%w: measurement of %d bytes", ErrBadPayload, len(m))
	}
	copy(q.Measurement[:], m)
	pub, err := r.bytes()
	if err != nil {
		return q, err
	}
	q.PublicKey = append([]byte(nil), pub...)
	nonce, err := r.bytes()
	if err != nil {
		return q, err
	}
	q.Nonce = append([]byte(nil), nonce...)
	sig, err := r.bytes()
	if err != nil {
		return q, err
	}
	q.Signature = append([]byte(nil), sig...)
	if err := r.done(); err != nil {
		return q, err
	}
	return q, nil
}
