package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// ChainLink is one ⟨key_i, nKey_i⟩ pair of the extended storage model
// (Definition 5.2). A record with k access-method chains stores k links.
// Sentinel records carry KindNull links for chains they do not anchor.
type ChainLink struct {
	Key  Key
	NKey Key
}

// Record is the unit the verifiable storage layer stores: the chain links
// that serve as presence/absence evidence plus the full data tuple.
// Sentinel records have a nil Data tuple.
type Record struct {
	Links []ChainLink
	Data  Tuple
}

// IsSentinel reports whether the record is a chain anchor rather than a
// data row.
func (r *Record) IsSentinel() bool { return r.Data == nil }

// Clone deep-copies the record.
func (r *Record) Clone() *Record {
	out := &Record{Links: make([]ChainLink, len(r.Links))}
	copy(out.Links, r.Links)
	if r.Data != nil {
		out.Data = r.Data.Clone()
	}
	return out
}

// value type tags for the tuple encoding; bit 7 marks NULL.
const (
	tagInt   byte = 0
	tagFloat byte = 1
	tagText  byte = 2
	tagBool  byte = 3
	nullBit  byte = 0x80
)

// Encode serialises the record. The format is self-describing (no schema
// needed to decode) and deterministic, which matters because these bytes
// are exactly what the PRF in the write-read consistent memory covers.
func Encode(r *Record) []byte { return AppendEncode(nil, r) }

// AppendEncode appends the record's Encode image to buf and returns the
// extended buffer.
func AppendEncode(buf []byte, r *Record) []byte {
	buf = append(buf, byte(len(r.Links)))
	for _, l := range r.Links {
		buf = appendKey(buf, l.Key)
		buf = appendKey(buf, l.NKey)
	}
	if r.Data == nil {
		buf = append(buf, 0xFF) // sentinel marker
		return buf
	}
	if len(r.Data) > 0xFE {
		panic(fmt.Sprintf("record: tuple arity %d exceeds encoding limit", len(r.Data)))
	}
	buf = append(buf, byte(len(r.Data)))
	for _, v := range r.Data {
		buf = appendValue(buf, v)
	}
	return buf
}

func appendKey(buf []byte, k Key) []byte {
	buf = append(buf, byte(k.Kind))
	if k.Kind == KindNormal {
		buf = binary.AppendUvarint(buf, uint64(len(k.B)))
		buf = append(buf, k.B...)
	}
	return buf
}

func appendValue(buf []byte, v Value) []byte {
	tag := byte(v.Type)
	if v.Null {
		buf = append(buf, tag|nullBit)
		return buf
	}
	buf = append(buf, tag)
	switch v.Type {
	case TypeInt:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	case TypeFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case TypeText:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	case TypeBool:
		b := byte(0)
		if v.B {
			b = 1
		}
		buf = append(buf, b)
	default:
		panic(fmt.Sprintf("record: unencodable type %s", v.Type))
	}
	return buf
}

// ErrCorrupt is wrapped by every decode error: the bytes are not an Encode
// image. Only canonical images are accepted (Encode(Decode(b)) == b), so a
// record the storage layer reads back is byte for byte one it wrote.
var ErrCorrupt = errors.New("record: corrupt encoding")

// Decode parses an Encode image into a record that shares no memory with
// buf.
func Decode(buf []byte) (*Record, error) {
	var s Scratch
	rec, err := s.Decode(buf)
	if err != nil {
		return nil, err
	}
	// Every key's bytes are copied into one buffer, each key capped so an
	// append to one cannot run into the next.
	n := 0
	for _, l := range rec.Links {
		n += len(l.Key.B) + len(l.NKey.B)
	}
	keys := make([]byte, 0, n)
	own := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		keys = append(keys, b...)
		return keys[len(keys)-len(b) : len(keys) : len(keys)]
	}
	for i := range rec.Links {
		l := &rec.Links[i]
		l.Key.B, l.NKey.B = own(l.Key.B), own(l.NKey.B)
	}
	out := &Record{Links: rec.Links}
	if !s.Sentinel() {
		out.Data = make(Tuple, s.Arity())
		var text strings.Builder
		_ = s.Tuple(AllColumns(s.Arity()), out.Data, &text) // every column exists
	}
	return out, nil
}

// allColumns is AllColumns' shared list, long enough for any tuple the
// encoding holds (0xFE columns).
var allColumns = identity(0xFE)

func identity(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// AllColumns returns the column list 0, 1, …, arity-1, the projection that
// keeps a whole tuple. The list may be shared and must not be written.
func AllColumns(arity int) []int {
	if arity > len(allColumns) { // a schema wider than any storable tuple
		return identity(arity)
	}
	return allColumns[:arity:arity]
}

// Scratch decodes one record image after another into the same Record, for
// readers that look at each record only until they fetch the next (the
// verified scan): no Record, link slice or key copy is allocated per image,
// and data values are built only on request, only for the columns asked
// for.
type Scratch struct {
	rec      Record
	img      []byte // the last image
	sentinel bool   // whether it is a chain anchor
	arity    int    // its column count
	// Where each value starts in img: the first len(offs) in offs, held in
	// the Scratch itself so that one living for a single point lookup
	// allocates nothing for them, and the rest in wide.
	offs [32]int32
	wide []int32
}

// Decode validates the whole image — every link and every value, whichever
// of them a caller goes on to build — and parses its chain links, noting
// where each value starts. The returned record belongs to the Scratch and
// its keys alias img: both are good until the next Decode and only while
// img is left unchanged. Its Data is nil; Tuple builds values.
func (s *Scratch) Decode(img []byte) (*Record, error) {
	d := decoder{buf: img}
	nLinks, err := d.byte()
	if err != nil {
		return nil, err
	}
	if cap(s.rec.Links) < int(nLinks) {
		s.rec.Links = make([]ChainLink, nLinks)
	}
	s.rec.Links = s.rec.Links[:nLinks]
	for i := range s.rec.Links {
		l := &s.rec.Links[i]
		if l.Key, err = d.key(); err != nil {
			return nil, err
		}
		if l.NKey, err = d.key(); err != nil {
			return nil, err
		}
	}
	arity, err := d.byte()
	if err != nil {
		return nil, err
	}
	s.img, s.sentinel, s.arity, s.wide = img, arity == 0xFF, 0, s.wide[:0]
	if !s.sentinel {
		s.arity = int(arity)
		var v Value
		for i := 0; i < s.arity; i++ {
			if i < len(s.offs) {
				s.offs[i] = int32(d.off)
			} else {
				s.wide = append(s.wide, int32(d.off))
			}
			if err := d.value(nil, &v); err != nil {
				return nil, err
			}
		}
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return &s.rec, nil
}

// Sentinel reports whether the last decoded image is a chain anchor, which
// carries no data tuple.
func (s *Scratch) Sentinel() bool { return s.sentinel }

// Arity returns the column count of the last decoded image's tuple.
func (s *Scratch) Arity() int { return s.arity }

// off returns where value c of the last image starts.
func (s *Scratch) off(c int) int {
	if c < len(s.offs) {
		return int(s.offs[c])
	}
	return int(s.wide[c-len(s.offs)])
}

// Tuple builds the listed columns of the last decoded image, in list
// order, into dst, which has len(cols) values. Text values are appended to
// text and are substrings of its string, so they share no memory with the
// image; the builder grows at most once per call, by at least its size,
// so one builder serves many tuples at few allocations. A column beyond
// the image's arity is an ErrCorrupt error.
func (s *Scratch) Tuple(cols []int, dst Tuple, text *strings.Builder) error {
	room := 0
	for _, c := range cols {
		if c >= s.arity {
			return fmt.Errorf("%w: column %d of a %d-column tuple", ErrCorrupt, c, s.arity)
		}
		if off := s.off(c); s.img[off] == tagText { // not NULL
			n, _ := binary.Uvarint(s.img[off+1:])
			room += int(n)
		}
	}
	text.Grow(room)
	for i, c := range cols {
		d := decoder{buf: s.img, off: s.off(c)}
		_ = d.value(text, &dst[i]) // cannot fail: Decode validated the value
	}
	return nil
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// take returns the next n bytes, aliasing the buffer. n comes from the
// untrusted image and is compared as it is: converted to int first, a
// length near MaxInt64 would wrap the bound negative.
func (d *decoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.off) {
		return nil, fmt.Errorf("%w: truncated (need %d bytes at %d of %d)", ErrCorrupt, n, d.off, len(d.buf))
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// bytes reads a uvarint length in its shortest form and that many bytes.
func (d *decoder) bytes() ([]byte, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		return nil, fmt.Errorf("%w: bad uvarint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return d.take(v)
}

func (d *decoder) key() (Key, error) {
	kb, err := d.byte()
	if err != nil {
		return Key{}, err
	}
	switch kind := KeyKind(kb); kind {
	case KindNull, KindBottom, KindTop:
		return Key{Kind: kind}, nil
	case KindNormal:
		b, err := d.bytes()
		return Key{Kind: kind, B: b}, err
	default:
		return Key{}, fmt.Errorf("%w: bad key kind %d", ErrCorrupt, kb)
	}
}

// value parses one value into out. With a nil text it only validates (a
// text value comes out empty); otherwise the text is appended to the
// builder and the value is a substring of the builder's string.
func (d *decoder) value(text *strings.Builder, out *Value) error {
	tag, err := d.byte()
	if err != nil {
		return err
	}
	typ := Type(tag &^ nullBit)
	if typ > TypeBool {
		return fmt.Errorf("%w: bad value tag %#x", ErrCorrupt, tag)
	}
	if tag&nullBit != 0 {
		*out = Null(typ)
		return nil
	}
	switch typ {
	case TypeInt, TypeFloat:
		b, err := d.take(8)
		if err != nil {
			return err
		}
		if bits := binary.LittleEndian.Uint64(b); typ == TypeInt {
			*out = Int(int64(bits))
		} else {
			*out = Float(math.Float64frombits(bits))
		}
		return nil
	case TypeText:
		b, err := d.bytes()
		*out = Value{Type: TypeText}
		if err == nil && text != nil {
			off := text.Len()
			text.Write(b)
			out.S = text.String()[off:]
		}
		return err
	default: // TypeBool
		b, err := d.byte()
		if err == nil && b > 1 {
			err = fmt.Errorf("%w: bad bool byte %#x", ErrCorrupt, b)
		}
		*out = Bool(b == 1)
		return err
	}
}
