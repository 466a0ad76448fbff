package record

import "fmt"

// Composite keys make secondary access-method chains total orders even when
// the indexed column has duplicate values: the chain key is the pair
// (column value, primary key), encoded order-preservingly. The paper's
// ⟨key, nKey⟩ verification (§5.2–5.3) requires chain keys to be unique;
// primary keys provide the tie-break exactly as secondary indexes do in
// conventional databases.
//
// Encoding: the value bytes are escaped (0x00 → 0x00 0xFF) and terminated
// with 0x00 0x00, then the primary-key bytes follow verbatim. Escaping
// keeps byte order equal to (value, pk) lexicographic order even for
// variable-length TEXT values where one value is a prefix of another.

// escapeAppend appends the escaped image of b plus the terminator.
func escapeAppend(dst, b []byte) []byte {
	for _, c := range b {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// CompositeKey builds the secondary-chain key for (value, primaryKey).
func CompositeKey(v Value, pk Key) (Key, error) {
	vk, err := KeyOf(v)
	if err != nil {
		return Key{}, fmt.Errorf("record: composite key value: %w", err)
	}
	if pk.Kind != KindNormal {
		return Key{}, fmt.Errorf("record: composite key needs a normal primary key, got %v", pk)
	}
	b := escapeAppend(make([]byte, 0, len(vk.B)+2+len(pk.B)), vk.B) // exact unless v holds a zero byte
	b = append(b, pk.B...)
	return Key{Kind: KindNormal, B: b}, nil
}

// CompositeLow returns a key that sorts ≤ every composite key whose value
// component is v: the range-scan lower bound for value v.
func CompositeLow(v Value) (Key, error) {
	vk, err := KeyOf(v)
	if err != nil {
		return Key{}, err
	}
	return Key{Kind: KindNormal, B: escapeAppend(nil, vk.B)}, nil
}

// CompositeHigh returns a key that sorts > every composite key whose value
// component is ≤ v and < every composite key whose value component is > v:
// the range-scan upper bound for value v.
func CompositeHigh(v Value) (Key, error) {
	vk, err := KeyOf(v)
	if err != nil {
		return Key{}, err
	}
	b := escapeAppend(nil, vk.B)
	// Bump the terminator's second byte: (value, anything) uses 0x00 0x00,
	// every strictly greater value escapes to something above 0x00 0x01.
	b[len(b)-1] = 0x01
	return Key{Kind: KindNormal, B: b}, nil
}
