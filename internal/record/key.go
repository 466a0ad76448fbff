package record

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// KeyKind distinguishes real keys from the ⊥/⊤ sentinels of Definition 4.2
// and the "not in this chain" marker used by multi-chain sentinel records
// (Fig. 6 stores a dash for chains a record does not participate in).
type KeyKind byte

const (
	// KindNull marks a record that does not participate in a chain.
	KindNull KeyKind = 0
	// KindBottom is ⊥, smaller than every real key.
	KindBottom KeyKind = 1
	// KindNormal is a real key derived from a column value.
	KindNormal KeyKind = 2
	// KindTop is ⊤, larger than every real key.
	KindTop KeyKind = 3
)

// Key is a chain key: a sentinel or an order-preserving encoding of a
// column value. Comparing encoded keys bytewise agrees with comparing the
// original values, which lets the untrusted index treat keys opaquely.
type Key struct {
	Kind KeyKind
	B    []byte // order-preserving value bytes; nil for sentinels
}

// Bottom is the ⊥ sentinel key.
func Bottom() Key { return Key{Kind: KindBottom} }

// Top is the ⊤ sentinel key.
func Top() Key { return Key{Kind: KindTop} }

// NullKey marks chain non-participation.
func NullKey() Key { return Key{Kind: KindNull} }

// KeyOf derives the chain key for a value. NULL column values cannot be
// chain keys (the chains define a total order over present keys).
func KeyOf(v Value) (Key, error) {
	b, err := AppendKeyOf(nil, v)
	if err != nil {
		return Key{}, err
	}
	return Key{Kind: KindNormal, B: b}, nil
}

// AppendKeyOf appends the bytes of KeyOf(v) to dst: the key without a Key
// of its own, for a caller that compares it through a scratch buffer.
func AppendKeyOf(dst []byte, v Value) ([]byte, error) {
	if v.Null {
		return dst, fmt.Errorf("record: NULL cannot be a chain key")
	}
	switch v.Type {
	case TypeInt:
		return binary.BigEndian.AppendUint64(dst, uint64(v.I)^(1<<63)), nil
	case TypeFloat:
		return binary.BigEndian.AppendUint64(dst, floatOrderBits(v.F)), nil
	case TypeText:
		return append(dst, v.S...), nil
	case TypeBool:
		if v.B {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	default:
		return dst, fmt.Errorf("record: unkeyable type %s", v.Type)
	}
}

// MustKeyOf is KeyOf for values statically known to be non-NULL.
func MustKeyOf(v Value) Key {
	k, err := KeyOf(v)
	if err != nil {
		panic(err)
	}
	return k
}

// IsSentinel reports whether the key is ⊥ or ⊤.
func (k Key) IsSentinel() bool { return k.Kind == KindBottom || k.Kind == KindTop }

// IsNull reports whether the key marks chain non-participation.
func (k Key) IsNull() bool { return k.Kind == KindNull }

// Compare orders keys: ⊥ < every normal key < ⊤. Null keys are not
// ordered; comparing one panics (they never enter an index or a chain).
func (k Key) Compare(o Key) int {
	if k.Kind == KindNull || o.Kind == KindNull {
		panic("record: comparing a null chain key")
	}
	if k.Kind != o.Kind {
		if k.Kind < o.Kind {
			return -1
		}
		return 1
	}
	if k.Kind != KindNormal {
		return 0
	}
	return bytes.Compare(k.B, o.B)
}

// Equal reports key equality.
func (k Key) Equal(o Key) bool {
	if k.Kind != o.Kind {
		return false
	}
	if k.Kind != KindNormal {
		return true
	}
	return bytes.Equal(k.B, o.B)
}

// Encode renders the key as bytes whose bytewise order equals Compare
// order: one kind byte followed by the value bytes. Null keys have no
// encoding.
func (k Key) Encode() []byte {
	return k.AppendEncode(make([]byte, 0, 1+len(k.B)))
}

// AppendEncode appends the Encode image to dst.
func (k Key) AppendEncode(dst []byte) []byte {
	if k.Kind == KindNull {
		panic("record: encoding a null chain key")
	}
	return append(append(dst, byte(k.Kind)), k.B...)
}

// DecodeKey parses an Encode image.
func DecodeKey(b []byte) (Key, error) {
	if len(b) == 0 {
		return Key{}, fmt.Errorf("record: empty key encoding")
	}
	kind := KeyKind(b[0])
	switch kind {
	case KindBottom, KindTop:
		if len(b) != 1 {
			return Key{}, fmt.Errorf("record: sentinel key with payload")
		}
		return Key{Kind: kind}, nil
	case KindNormal:
		return Key{Kind: kind, B: append([]byte(nil), b[1:]...)}, nil
	default:
		return Key{}, fmt.Errorf("record: bad key kind %d", b[0])
	}
}

// String renders the key for logs and proofs.
func (k Key) String() string {
	switch k.Kind {
	case KindNull:
		return "—"
	case KindBottom:
		return "⊥"
	case KindTop:
		return "⊤"
	default:
		return fmt.Sprintf("k(%x)", k.B)
	}
}
