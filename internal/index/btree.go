// Package index provides the untrusted in-memory B-tree that maps chain
// keys to record locations (paper §5.2: the access methods fetch
// (page, index) pairs from "an index stored in untrusted memory (the index
// does not need to be verifiable)"). VeriDB's integrity never depends on
// this structure: a wrong or malicious answer either fails the access
// method's ⟨key, nKey⟩ verification or surfaces as memory tampering. It
// only needs to be fast.
//
// Keys are byte slices compared lexicographically; callers encode chain
// keys with record.Key.Encode, whose byte order matches value order.
package index

import (
	"bytes"
	"fmt"
	"strings"
)

// Loc is a record location in the verifiable storage.
type Loc struct {
	Page uint64
	Slot int
}

// degree is the minimum child count of an internal node (order 2*degree).
const degree = 32

const (
	maxKeys = 2*degree - 1
	minKeys = degree - 1
)

type node struct {
	keys     [][]byte
	vals     []Loc
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// find returns the index of the first key >= k and whether it equals k.
func (n *node) find(k []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.keys) && bytes.Equal(n.keys[lo], k) {
		return lo, true
	}
	return lo, false
}

// BTree is a mutable ordered map from byte keys to locations. It is not
// safe for concurrent mutation; the storage layer guards each chain's index
// with its own lock.
type BTree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *BTree { return &BTree{root: &node{}} }

// Len returns the number of keys.
func (t *BTree) Len() int { return t.size }

// Get returns the location stored for key.
func (t *BTree) Get(key []byte) (Loc, bool) {
	n := t.root
	for {
		i, eq := n.find(key)
		if eq {
			return n.vals[i], true
		}
		if n.leaf() {
			return Loc{}, false
		}
		n = n.children[i]
	}
}

// Set inserts key → loc, replacing any existing entry. It reports whether
// a new key was inserted. The tree keeps its own copy of a new key (and
// none of a replaced one's), so the caller may reuse key's bytes.
func (t *BTree) Set(key []byte, loc Loc) bool {
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0)
	}
	inserted := t.root.insertNonFull(key, loc)
	if inserted {
		t.size++
	}
	return inserted
}

func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := maxKeys / 2
	right := &node{
		keys: append([][]byte(nil), child.keys[mid+1:]...),
		vals: append([]Loc(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
	}
	upKey, upVal := child.keys[mid], child.vals[mid]
	child.keys = child.keys[:mid]
	child.vals = child.vals[:mid]
	if !child.leaf() {
		child.children = child.children[:mid+1]
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = upKey
	n.vals = append(n.vals, Loc{})
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = upVal
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *node) insertNonFull(key []byte, loc Loc) bool {
	for {
		i, eq := n.find(key)
		if eq {
			n.vals[i] = loc
			return false
		}
		if n.leaf() {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = append([]byte(nil), key...) // the tree's own copy
			n.vals = append(n.vals, Loc{})
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = loc
			return true
		}
		if len(n.children[i].keys) == maxKeys {
			n.splitChild(i)
			if c := bytes.Compare(key, n.keys[i]); c == 0 {
				n.vals[i] = loc
				return false
			} else if c > 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes key, reporting whether it was present.
func (t *BTree) Delete(key []byte) bool {
	if t.size == 0 {
		return false
	}
	deleted := t.root.delete(key)
	if len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if deleted {
		t.size--
	}
	return deleted
}

// delete removes key from the subtree; the caller guarantees n has more
// than minKeys keys unless it is the root.
func (n *node) delete(key []byte) bool {
	i, eq := n.find(key)
	if n.leaf() {
		if !eq {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return true
	}
	if eq {
		// Replace with predecessor (from left child) or successor, pulled
		// from whichever side can afford to lose a key.
		if len(n.children[i].keys) > minKeys {
			pk, pv := n.children[i].max()
			n.keys[i], n.vals[i] = pk, pv
			return n.children[i].delete(pk)
		}
		if len(n.children[i+1].keys) > minKeys {
			sk, sv := n.children[i+1].min()
			n.keys[i], n.vals[i] = sk, sv
			return n.children[i+1].delete(sk)
		}
		n.mergeChildren(i)
		return n.children[i].delete(key)
	}
	// Descend, topping the child up first if it is minimal. Rotations and
	// merges shift separators, so the descent position is recomputed; the
	// target can never become a separator here (rotated-up keys come from
	// subtrees the target is provably outside of).
	if len(n.children[i].keys) == minKeys {
		switch {
		case i > 0 && len(n.children[i-1].keys) > minKeys:
			n.rotateRight(i)
		case i < len(n.children)-1 && len(n.children[i+1].keys) > minKeys:
			n.rotateLeft(i)
		case i > 0:
			n.mergeChildren(i - 1)
		default:
			n.mergeChildren(i)
		}
		i, _ = n.find(key)
	}
	return n.children[i].delete(key)
}

// rotateRight moves a key from child i-1 through the separator into child i.
func (n *node) rotateRight(i int) {
	left, right := n.children[i-1], n.children[i]
	right.keys = append(right.keys, nil)
	copy(right.keys[1:], right.keys)
	right.keys[0] = n.keys[i-1]
	right.vals = append(right.vals, Loc{})
	copy(right.vals[1:], right.vals)
	right.vals[0] = n.vals[i-1]
	n.keys[i-1] = left.keys[len(left.keys)-1]
	n.vals[i-1] = left.vals[len(left.vals)-1]
	left.keys = left.keys[:len(left.keys)-1]
	left.vals = left.vals[:len(left.vals)-1]
	if !left.leaf() {
		right.children = append(right.children, nil)
		copy(right.children[1:], right.children)
		right.children[0] = left.children[len(left.children)-1]
		left.children = left.children[:len(left.children)-1]
	}
}

// rotateLeft moves a key from child i+1 through the separator into child i.
func (n *node) rotateLeft(i int) {
	left, right := n.children[i], n.children[i+1]
	left.keys = append(left.keys, n.keys[i])
	left.vals = append(left.vals, n.vals[i])
	n.keys[i] = right.keys[0]
	n.vals[i] = right.vals[0]
	right.keys = append(right.keys[:0], right.keys[1:]...)
	right.vals = append(right.vals[:0], right.vals[1:]...)
	if !left.leaf() {
		left.children = append(left.children, right.children[0])
		right.children = append(right.children[:0], right.children[1:]...)
	}
}

// mergeChildren folds child i+1 and the separator key into child i.
func (n *node) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.keys = append(left.keys, n.keys[i])
	left.keys = append(left.keys, right.keys...)
	left.vals = append(left.vals, n.vals[i])
	left.vals = append(left.vals, right.vals...)
	left.children = append(left.children, right.children...)
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (n *node) min() ([]byte, Loc) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], n.vals[0]
}

func (n *node) max() ([]byte, Loc) {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1]
}

// Max returns the largest key.
func (t *BTree) Max() ([]byte, Loc, bool) {
	if t.size == 0 {
		return nil, Loc{}, false
	}
	k, v := t.root.max()
	return k, v, true
}

// SeekLE returns the greatest entry with key ≤ target. This is the lookup
// the verified access methods build on: it lands on the record whose
// ⟨key, nKey⟩ interval covers the target (§5.2 index search).
func (t *BTree) SeekLE(target []byte) ([]byte, Loc, bool) {
	var bk []byte
	var bv Loc
	found := false
	n := t.root
	for {
		i, eq := n.find(target)
		if eq {
			return n.keys[i], n.vals[i], true
		}
		if i > 0 {
			bk, bv = n.keys[i-1], n.vals[i-1]
			found = true
		}
		if n.leaf() {
			return bk, bv, found
		}
		n = n.children[i]
	}
}

// SeekLT returns the greatest entry with key strictly < target. Chain
// maintenance uses it to find a record's predecessor.
func (t *BTree) SeekLT(target []byte) ([]byte, Loc, bool) {
	var bk []byte
	var bv Loc
	found := false
	n := t.root
	for {
		i, eq := n.find(target)
		if eq {
			// Entry i equals target: predecessor is the max of child i, or
			// the best seen so far for leaves.
			if !n.leaf() {
				k, v := n.children[i].max()
				return k, v, true
			}
			if i > 0 {
				return n.keys[i-1], n.vals[i-1], true
			}
			return bk, bv, found
		}
		if i > 0 {
			bk, bv = n.keys[i-1], n.vals[i-1]
			found = true
		}
		if n.leaf() {
			return bk, bv, found
		}
		n = n.children[i]
	}
}

// Ascend visits entries with key ≥ from in ascending order until fn
// returns false. A nil from starts at the minimum.
func (t *BTree) Ascend(from []byte, fn func(key []byte, loc Loc) bool) {
	t.root.ascend(from, fn)
}

func (n *node) ascend(from []byte, fn func([]byte, Loc) bool) bool {
	i := 0
	if from != nil {
		i, _ = n.find(from)
	}
	for ; i < len(n.keys); i++ {
		if !n.leaf() {
			if !n.children[i].ascend(from, fn) {
				return false
			}
		}
		if from == nil || bytes.Compare(n.keys[i], from) >= 0 {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		from = nil // after the first qualifying position, visit everything
	}
	if !n.leaf() {
		return n.children[len(n.keys)].ascend(from, fn)
	}
	return true
}

// check validates B-tree invariants; tests use it.
func (t *BTree) check() error {
	var prev []byte
	first := true
	count := 0
	var walk func(n *node, root bool, depth int) (int, error)
	walk = func(n *node, root bool, depth int) (int, error) {
		if !root && len(n.keys) < minKeys {
			return 0, fmt.Errorf("node underflow: %d keys", len(n.keys))
		}
		if len(n.keys) > maxKeys {
			return 0, fmt.Errorf("node overflow: %d keys", len(n.keys))
		}
		if len(n.keys) != len(n.vals) {
			return 0, fmt.Errorf("keys/vals mismatch")
		}
		if n.leaf() {
			for _, k := range n.keys {
				if !first && bytes.Compare(prev, k) >= 0 {
					return 0, fmt.Errorf("order violation at %x", k)
				}
				prev, first = k, false
				count++
			}
			return depth, nil
		}
		if len(n.children) != len(n.keys)+1 {
			return 0, fmt.Errorf("children count %d for %d keys", len(n.children), len(n.keys))
		}
		leafDepth := -1
		for i, c := range n.children {
			d, err := walk(c, false, depth+1)
			if err != nil {
				return 0, err
			}
			if leafDepth == -1 {
				leafDepth = d
			} else if d != leafDepth {
				return 0, fmt.Errorf("unbalanced: leaf depths %d and %d", leafDepth, d)
			}
			if i < len(n.keys) {
				if !first && bytes.Compare(prev, n.keys[i]) >= 0 {
					return 0, fmt.Errorf("order violation at separator %x", n.keys[i])
				}
				prev, first = n.keys[i], false
				count++
			}
		}
		return leafDepth, nil
	}
	if _, err := walk(t.root, true, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d keys found", t.size, count)
	}
	return nil
}

// String renders a compact structural dump for debugging.
func (t *BTree) String() string {
	var b strings.Builder
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		fmt.Fprintf(&b, "%s%d keys\n", strings.Repeat("  ", depth), len(n.keys))
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return b.String()
}
