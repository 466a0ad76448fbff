package record

// The record image is what vmem's PRF covers and what the storage layer
// reads back from untrusted memory, so the decoder faces arbitrary bytes.
// The contract: a typed error (wrapping ErrCorrupt) or a record, never a
// panic; the scan path's scratch decoder and Decode agree; only canonical
// images are accepted; a tuple built for a subset of the columns is that
// projection of the whole tuple; and an emitted tuple shares no memory with
// the image it came from. AppendEncode extends a buffer by exactly
// Encode's image.
//
// The seed corpus lives in testdata/fuzz/FuzzRecordDecode/ (regenerate with
// VERIDB_UPDATE_GOLDEN=1 go test -run TestGenerateFuzzCorpus ./internal/record).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeeds are the committed seeds: a sentinel, a row with NULLs, a row
// with empty text, a record on two chains, a 40-column row — and the three
// images the decoder used to get wrong.
func fuzzSeeds() map[string][]byte {
	// A key whose uvarint length is MaxInt64: `off+n > len` wrapped negative
	// and the slice expression panicked.
	overflow := binary.AppendUvarint([]byte{1, byte(KindNormal)}, math.MaxInt64)
	wide := make(Tuple, 40)
	for i := range wide {
		switch i % 3 {
		case 0:
			wide[i] = Int(int64(i))
		case 1:
			wide[i] = Text(strconv.Itoa(i))
		default:
			wide[i] = Null(TypeFloat)
		}
	}
	return map[string][]byte{
		"sentinel": Encode(&Record{Links: []ChainLink{{Key: Bottom(), NKey: Top()}, {Key: NullKey(), NKey: NullKey()}}}),
		"nulls": Encode(&Record{
			Links: []ChainLink{{Key: MustKeyOf(Int(7)), NKey: Top()}},
			Data:  Tuple{Int(7), Null(TypeText), Null(TypeFloat), Bool(true), Null(TypeBool)},
		}),
		"empty-text": Encode(&Record{
			Links: []ChainLink{{Key: MustKeyOf(Text("")), NKey: MustKeyOf(Text("a"))}},
			Data:  Tuple{Text(""), Text(""), Float(-0.5)},
		}),
		"two-chains": Encode(&Record{
			Links: []ChainLink{
				{Key: MustKeyOf(Int(10)), NKey: MustKeyOf(Int(20))},
				{Key: MustKeyOf(Text("k\x00\x0010")), NKey: Top()},
			},
			Data: Tuple{Int(10), Text("k"), Text("a longer payload"), Float(1.25), Bool(false)},
		}),
		// Wider than the offsets a Scratch holds inline.
		"wide": Encode(&Record{
			Links: []ChainLink{{Key: MustKeyOf(Int(1)), NKey: Top()}},
			Data:  wide,
		}),
		"length-overflow": overflow,
		// ⟨⊥,⊤⟩, one text column "a" whose length 1 is spelt in two bytes.
		"overlong-uvarint": {1, byte(KindBottom), byte(KindTop), 1, tagText, 0x81, 0x00, 'a'},
		// ⟨⊥,⊤⟩, one bool column holding 2.
		"bool-two": {1, byte(KindBottom), byte(KindTop), 1, tagBool, 2},
	}
}

// checkDecode is the contract, on one input.
func checkDecode(data []byte) error {
	img := append([]byte(nil), data...)
	want, err := Decode(img)
	var s Scratch
	rec, serr := s.Decode(img)
	if (err == nil) != (serr == nil) {
		return fmt.Errorf("Decode: %v, Scratch.Decode: %v", err, serr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) || !errors.Is(serr, ErrCorrupt) {
			return fmt.Errorf("untyped decode errors: %v, %v", err, serr)
		}
		return nil
	}
	if !bytes.Equal(img, data) {
		return errors.New("decoding wrote to its input")
	}
	// Records are compared through Encode, which is exact (NaN payloads
	// included).
	if enc := Encode(want); !bytes.Equal(enc, data) {
		return fmt.Errorf("accepted a non-canonical image: re-encodes as %x, was %x", enc, data)
	}
	// AppendEncode extends a buffer by exactly Encode's image, whether it
	// grows the buffer or writes into spare capacity.
	prefix := data[:len(data)/3]
	for _, dst := range [][]byte{
		append([]byte(nil), prefix...),
		append(make([]byte, 0, len(prefix)+len(data)), prefix...),
	} {
		if got := AppendEncode(dst, want); !bytes.Equal(got, append(append([]byte(nil), prefix...), data...)) {
			return fmt.Errorf("AppendEncode(%x) = %x, want the prefix then %x", prefix, got, data)
		}
	}
	// The scratch record's keys alias img, which is still intact.
	var tup Tuple
	var text strings.Builder
	if !s.Sentinel() {
		tup = make(Tuple, s.Arity())
		if err := s.Tuple(AllColumns(s.Arity()), tup, &text); err != nil {
			return fmt.Errorf("whole tuple: %v", err)
		}
	}
	if enc := Encode(&Record{Links: rec.Links, Data: tup}); !bytes.Equal(enc, data) {
		return fmt.Errorf("scratch decoder disagrees with Decode: re-encodes as %x, was %x", enc, data)
	}
	// A projection, for a column set the input picks: its bits, one per
	// column, read cyclically.
	var cols []int
	for c := range tup {
		if data[(c/8)%len(data)]&(1<<(c%8)) != 0 {
			cols = append(cols, c)
		}
	}
	proj := make(Tuple, len(cols))
	if err := s.Tuple(cols, proj, &text); err != nil {
		return fmt.Errorf("projection %v: %v", cols, err)
	}
	for i, c := range cols {
		if !sameValue(proj[i], tup[c]) {
			return fmt.Errorf("projection %v: column %d built as %v, the whole tuple has %v", cols, c, proj[i], tup[c])
		}
	}
	if err := s.Tuple([]int{s.Arity()}, make(Tuple, 1), &text); !errors.Is(err, ErrCorrupt) {
		return fmt.Errorf("a column beyond the arity: %v, want ErrCorrupt", err)
	}
	// Neither Decode's record nor the emitted tuple may notice the buffer
	// being reused for the next record.
	for i := range img {
		img[i] ^= 0xFF
	}
	if enc := Encode(&Record{Links: want.Links, Data: tup}); !bytes.Equal(enc, data) {
		return fmt.Errorf("the emitted tuple changed with the source buffer: %x, was %x", enc, data)
	}
	for i, c := range cols {
		if !sameValue(proj[i], tup[c]) {
			return fmt.Errorf("the projected tuple changed with the source buffer at column %d", c)
		}
	}
	if enc := Encode(want); !bytes.Equal(enc, data) {
		return errors.New("Decode's record aliases its input")
	}
	return nil
}

// sameValue compares two values exactly, as their encodings (NaN payloads
// included).
func sameValue(a, b Value) bool {
	return bytes.Equal(appendValue(nil, a), appendValue(nil, b))
}

func FuzzRecordDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkDecode(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeRejectsWhatItUsedToAccept names the three defects: each image
// draws ErrCorrupt, where the first used to panic and the other two decoded
// to a record that a different image also decodes to.
func TestDecodeRejectsWhatItUsedToAccept(t *testing.T) {
	seeds := fuzzSeeds()
	for _, name := range []string{"length-overflow", "overlong-uvarint", "bool-two"} {
		if _, err := Decode(seeds[name]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	for name, s := range seeds {
		if err := checkDecode(s); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestGenerateFuzzCorpus writes the committed seed corpus in the `go test
// fuzz v1` format. Run with VERIDB_UPDATE_GOLDEN=1 after a format change.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("VERIDB_UPDATE_GOLDEN") == "" {
		t.Skip("set VERIDB_UPDATE_GOLDEN=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRecordDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, in := range fuzzSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
