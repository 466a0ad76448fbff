package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func k(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestSetGetBasic(t *testing.T) {
	tr := New()
	if _, ok := tr.Get(k(1)); ok {
		t.Fatal("empty tree returned a value")
	}
	if !tr.Set(k(1), Loc{Page: 10, Slot: 2}) {
		t.Fatal("fresh insert reported as replacement")
	}
	got, ok := tr.Get(k(1))
	if !ok || got != (Loc{Page: 10, Slot: 2}) {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if tr.Set(k(1), Loc{Page: 11, Slot: 3}) {
		t.Fatal("replacement reported as fresh insert")
	}
	got, _ = tr.Get(k(1))
	if got != (Loc{Page: 11, Slot: 3}) {
		t.Fatalf("replacement lost: %+v", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestSetCopiesKey(t *testing.T) {
	tr := New()
	key := []byte("mutable")
	tr.Set(key, Loc{Page: 1})
	key[0] = 'X'
	if _, ok := tr.Get([]byte("mutable")); !ok {
		t.Fatal("tree aliased the caller's key slice")
	}
}

func TestLargeSequentialAndReverse(t *testing.T) {
	for _, dir := range []string{"fwd", "rev"} {
		tr := New()
		n := 10000
		for i := 0; i < n; i++ {
			j := i
			if dir == "rev" {
				j = n - 1 - i
			}
			tr.Set(k(j), Loc{Page: uint64(j)})
		}
		if tr.Len() != n {
			t.Fatalf("%s: Len = %d", dir, tr.Len())
		}
		if err := tr.check(); err != nil {
			t.Fatalf("%s: invariants: %v", dir, err)
		}
		for i := 0; i < n; i++ {
			got, ok := tr.Get(k(i))
			if !ok || got.Page != uint64(i) {
				t.Fatalf("%s: Get(%d) = %+v, %v", dir, i, got, ok)
			}
		}
	}
}

func TestDeleteEverything(t *testing.T) {
	tr := New()
	n := 5000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		tr.Set(k(i), Loc{Page: uint64(i)})
	}
	perm2 := rand.New(rand.NewSource(4)).Perm(n)
	for step, i := range perm2 {
		if !tr.Delete(k(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
		if step%500 == 0 {
			if err := tr.check(); err != nil {
				t.Fatalf("after %d deletes: %v", step+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if tr.Delete(k(0)) {
		t.Fatal("delete from empty tree succeeded")
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Set(k(i*2), Loc{})
	}
	if tr.Delete(k(1)) {
		t.Fatal("deleted a key that was never inserted")
	}
	if tr.Len() != 100 {
		t.Fatalf("Len changed: %d", tr.Len())
	}
}

func TestSeekLE(t *testing.T) {
	tr := New()
	for i := 10; i <= 100; i += 10 {
		tr.Set(k(i), Loc{Page: uint64(i)})
	}
	cases := []struct {
		target int
		want   int
		ok     bool
	}{
		{5, 0, false},  // below minimum
		{10, 10, true}, // exact minimum
		{15, 10, true}, // between
		{100, 100, true},
		{999, 100, true}, // above maximum
		{55, 50, true},
	}
	for _, c := range cases {
		key, loc, ok := tr.SeekLE(k(c.target))
		if ok != c.ok {
			t.Fatalf("SeekLE(%d) ok = %v", c.target, ok)
		}
		if ok && (!bytes.Equal(key, k(c.want)) || loc.Page != uint64(c.want)) {
			t.Fatalf("SeekLE(%d) = %x/%d, want %d", c.target, key, loc.Page, c.want)
		}
	}
}

func TestSeekLT(t *testing.T) {
	tr := New()
	for i := 10; i <= 100; i += 10 {
		tr.Set(k(i), Loc{Page: uint64(i)})
	}
	cases := []struct {
		target int
		want   int
		ok     bool
	}{
		{10, 0, false}, // nothing strictly below the minimum
		{11, 10, true},
		{20, 10, true}, // exact key: strict predecessor
		{55, 50, true},
		{999, 100, true},
	}
	for _, c := range cases {
		key, _, ok := tr.SeekLT(k(c.target))
		if ok != c.ok {
			t.Fatalf("SeekLT(%d) ok = %v", c.target, ok)
		}
		if ok && !bytes.Equal(key, k(c.want)) {
			t.Fatalf("SeekLT(%d) = %x, want %d", c.target, key, c.want)
		}
	}
	// Deep-tree exact-key predecessor: exercise the internal-node path.
	big := New()
	for i := 0; i < 5000; i++ {
		big.Set(k(i*2), Loc{})
	}
	for _, probe := range []int{2, 1000, 4444, 9998} {
		key, _, ok := big.SeekLT(k(probe))
		want := (probe - 1) / 2 * 2
		if probe%2 == 0 {
			want = probe - 2
		}
		if !ok || !bytes.Equal(key, k(want)) {
			t.Fatalf("SeekLT(%d) = %x, %v; want %d", probe, key, ok, want)
		}
	}
}

// TestMinMax: the smallest key is the first Ascend from nil visits, and
// the largest is Max.
func TestMinMax(t *testing.T) {
	tr := New()
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree")
	}
	for _, i := range rand.New(rand.NewSource(9)).Perm(1000) {
		tr.Set(k(i), Loc{})
	}
	var mink []byte
	tr.Ascend(nil, func(key []byte, _ Loc) bool { mink = key; return false })
	maxk, _, _ := tr.Max()
	if !bytes.Equal(mink, k(0)) || !bytes.Equal(maxk, k(999)) {
		t.Fatalf("Min/Max = %x/%x", mink, maxk)
	}
}

func TestAscendFull(t *testing.T) {
	tr := New()
	n := 3000
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		tr.Set(k(i), Loc{Page: uint64(i)})
	}
	var visited []int
	tr.Ascend(nil, func(key []byte, loc Loc) bool {
		visited = append(visited, int(binary.BigEndian.Uint64(key)))
		return true
	})
	if len(visited) != n {
		t.Fatalf("visited %d of %d", len(visited), n)
	}
	if !sort.IntsAreSorted(visited) {
		t.Fatal("Ascend out of order")
	}
}

func TestAscendFrom(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Set(k(i*2), Loc{}) // evens only
	}
	var visited []int
	tr.Ascend(k(51), func(key []byte, _ Loc) bool {
		visited = append(visited, int(binary.BigEndian.Uint64(key)))
		return len(visited) < 5
	})
	want := []int{52, 54, 56, 58, 60}
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("Ascend from 51 = %v, want %v", visited, want)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Set(k(i), Loc{})
	}
	count := 0
	tr.Ascend(nil, func([]byte, Loc) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestAgainstShadowMap drives random operations against a sorted shadow and
// checks every query answer plus structural invariants.
func TestAgainstShadowMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		shadow := map[string]Loc{}
		for op := 0; op < 2000; op++ {
			key := k(rng.Intn(500))
			switch rng.Intn(3) {
			case 0:
				loc := Loc{Page: rng.Uint64(), Slot: rng.Intn(100)}
				tr.Set(key, loc)
				shadow[string(key)] = loc
			case 1:
				got := tr.Delete(key)
				_, want := shadow[string(key)]
				if got != want {
					return false
				}
				delete(shadow, string(key))
			case 2:
				got, ok := tr.Get(key)
				want, wok := shadow[string(key)]
				if ok != wok || (ok && got != want) {
					return false
				}
			}
		}
		if tr.Len() != len(shadow) {
			return false
		}
		if err := tr.check(); err != nil {
			return false
		}
		// SeekLE agreement on every possible target.
		keys := make([]string, 0, len(shadow))
		for s := range shadow {
			keys = append(keys, s)
		}
		sort.Strings(keys)
		for probe := 0; probe < 520; probe += 7 {
			target := k(probe)
			i := sort.SearchStrings(keys, string(target))
			var want string
			haveWant := false
			if i < len(keys) && keys[i] == string(target) {
				want, haveWant = keys[i], true
			} else if i > 0 {
				want, haveWant = keys[i-1], true
			}
			gk, _, ok := tr.SeekLE(target)
			if ok != haveWant || (ok && string(gk) != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := New()
	words := []string{"", "a", "aa", "ab", "b", "ba", "z", "zz", "zzz"}
	for i, w := range words {
		tr.Set([]byte(w), Loc{Slot: i})
	}
	var got []string
	tr.Ascend(nil, func(key []byte, _ Loc) bool {
		got = append(got, string(key))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(words) {
		t.Fatalf("order %v", got)
	}
	gk, _, ok := tr.SeekLE([]byte("aab"))
	if !ok || string(gk) != "aa" {
		t.Fatalf("SeekLE(aab) = %q, %v", gk, ok)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(k(i), Loc{Page: uint64(i)})
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 1_000_000; i++ {
		tr.Set(k(i), Loc{Page: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(k(i % 1_000_000))
	}
}

func BenchmarkSeekLE(b *testing.B) {
	tr := New()
	for i := 0; i < 1_000_000; i++ {
		tr.Set(k(i*2), Loc{Page: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SeekLE(k(i % 2_000_000))
	}
}
