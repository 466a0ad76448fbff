package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"veridb/internal/portal"
	"veridb/internal/record"
)

// The kv table both point workloads use: kv(k INT PRIMARY KEY, v TEXT)
// with 100-byte values, keys 0..rows-1.
const (
	kvDDL    = `CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`
	valueLen = 100
	// loadBatch rows go into one INSERT statement during set-up.
	loadBatch = 500
)

// kvValue is the model: the value key k holds after ver rewrites, a pure
// function of the workload seed. Its alphabet needs no SQL quoting.
func kvValue(seed, k int64, ver uint32) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz012345"
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(k)*0xBF58476D1CE4E5B9 ^ uint64(ver)*0x94D049BB133111EB
	var b [valueLen]byte
	for i := 0; i < valueLen; {
		// splitmix64: one draw yields eight 5-bit letters.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i < valueLen; j, i = j+1, i+1 {
			b[i] = alphabet[z&31]
			z >>= 5
		}
	}
	return string(b[:])
}

// loadKV creates and fills the kv table through exec (a database's SQL
// entry point), loadBatch rows per INSERT.
func loadKV(exec func(string) error, seed int64, rows int) error {
	if err := exec(kvDDL); err != nil {
		return err
	}
	var sb strings.Builder
	for lo := 0; lo < rows; lo += loadBatch {
		sb.Reset()
		sb.WriteString(`INSERT INTO kv VALUES `)
		for k := lo; k < lo+loadBatch && k < rows; k++ {
			if k > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,'%s')", k, kvValue(seed, int64(k), 0))
		}
		if err := exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// stmt is one generated statement with its expected answer.
type stmt struct {
	kind string
	text string
	// arg is what the stream drew (a key, a write, a key range): what the
	// ladder's storage rung needs to make the equivalent Table calls.
	arg any
	// check compares the answer with the generator's model.
	check func(rows []record.Tuple, affected int) error
	// commit folds an acknowledged write into the model (nil for reads); a
	// refused write is never committed, so the model holds exactly the
	// acknowledged state.
	commit func()
}

// stream produces a workload's statements; the program under test only
// ever sees what next returns.
type stream interface {
	next() stmt
}

// wireGen drives one stream over one wire client.
type wireGen struct {
	wc *wireClient
	s  stream
}

func (g *wireGen) do(sp *spanBuf, opID uint64) (string, time.Duration, error) {
	st := g.s.next()
	resp, lat, err := g.send(st, sp, opID)
	if err != nil {
		return st.kind, lat, err
	}
	if err := st.check(resp.Rows, resp.Affected); err != nil {
		return st.kind, lat, fmt.Errorf("wrong answer to %q: %w", st.text, err)
	}
	if st.commit != nil {
		st.commit()
	}
	return st.kind, lat, nil
}

// send is one timed, verified round trip under a root span.
func (g *wireGen) send(st stmt, sp *spanBuf, opID uint64) (*portal.Response, time.Duration, error) {
	root := sp.begin(spanOp+st.kind, -1, opID)
	t0 := time.Now()
	resp, err := g.wc.roundTrip(st.text, sp, root, opID)
	lat := time.Since(t0)
	sp.end(root)
	return resp, lat, err
}

// clientRNG seeds generator i of a run from the workload seed.
func clientRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(i)))
}

// readStream is wire_point_read: uniform point lookups by primary key.
type readStream struct {
	rng  *rand.Rand
	seed int64
	rows int64
}

func (s *readStream) next() stmt {
	k := s.rng.Int63n(s.rows)
	return stmt{
		kind: "select",
		text: fmt.Sprintf(`SELECT v FROM kv WHERE k = %d`, k),
		arg:  k,
		check: func(rows []record.Tuple, _ int) error {
			if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].S != kvValue(s.seed, k, 0) {
				return fmt.Errorf("key %d: got %v", k, rows)
			}
			return nil
		},
	}
}

// writeModel is wire_write_durable's statement source for one client: it
// owns keys [lo, hi), all present at the start, and draws 50 % UPDATE,
// 25 % INSERT, 25 % DELETE by primary key, so the row count stays level.
// A delete moves a key to the absent list, an insert takes one back; when
// the drawn kind has no candidate key the other of the pair runs instead,
// so no operation is ever expected to fail.
type writeModel struct {
	rng     *rand.Rand
	seed    int64
	lo      int64
	ver     []uint32 // per owned key: rewrites so far
	present []int64
	absent  []int64
	// rowWrites counts acknowledged statements that stored a row (updates
	// and inserts): the user bytes the WAL's space metric divides by.
	rowWrites int
}

func newWriteModel(seed int64, client int, lo, hi int64) *writeModel {
	m := &writeModel{rng: clientRNG(seed, client), seed: seed, lo: lo, ver: make([]uint32, hi-lo)}
	for k := lo; k < hi; k++ {
		m.present = append(m.present, k)
	}
	return m
}

// writeOp is one drawn write before it is rendered or applied.
type writeOp struct {
	kind string
	key  int64
	idx  int // position in present (update, delete) or absent (insert)
	val  string
}

// The write mix, as shares of the statements drawn.
const (
	updateShare = 0.50
	insertShare = 0.25
	deleteShare = 0.25
)

func (m *writeModel) draw() writeOp {
	r := m.rng.Float64()
	switch {
	case r < updateShare && len(m.present) > 0:
		i := m.rng.Intn(len(m.present))
		k := m.present[i]
		return writeOp{kind: "update", key: k, idx: i, val: kvValue(m.seed, k, m.ver[k-m.lo]+1)}
	case (r < updateShare+insertShare || len(m.present) == 0) && len(m.absent) > 0:
		i := m.rng.Intn(len(m.absent))
		k := m.absent[i]
		return writeOp{kind: "insert", key: k, idx: i, val: kvValue(m.seed, k, m.ver[k-m.lo]+1)}
	default:
		i := m.rng.Intn(len(m.present))
		return writeOp{kind: "delete", key: m.present[i], idx: i}
	}
}

func (m *writeModel) commit(op writeOp) {
	switch op.kind {
	case "update":
		m.ver[op.key-m.lo]++
		m.rowWrites++
	case "insert":
		m.ver[op.key-m.lo]++
		m.rowWrites++
		m.absent[op.idx] = m.absent[len(m.absent)-1]
		m.absent = m.absent[:len(m.absent)-1]
		m.present = append(m.present, op.key)
	case "delete":
		m.present[op.idx] = m.present[len(m.present)-1]
		m.present = m.present[:len(m.present)-1]
		m.absent = append(m.absent, op.key)
	}
}

func (op writeOp) sql() string {
	switch op.kind {
	case "update":
		return fmt.Sprintf(`UPDATE kv SET v = '%s' WHERE k = %d`, op.val, op.key)
	case "insert":
		return fmt.Sprintf(`INSERT INTO kv VALUES (%d,'%s')`, op.key, op.val)
	default:
		return fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, op.key)
	}
}

func (m *writeModel) next() stmt {
	op := m.draw()
	return stmt{
		kind: op.kind,
		text: op.sql(),
		arg:  op,
		check: func(_ []record.Tuple, affected int) error {
			if affected != 1 {
				return fmt.Errorf("key %d: %d rows affected, want 1", op.key, affected)
			}
			return nil
		},
		commit: func() { m.commit(op) },
	}
}

// expected returns the model's final state: every owned key's value, or
// absence from the map for a deleted key.
func (m *writeModel) expected(into map[int64]string) {
	for _, k := range m.present {
		into[k] = kvValue(m.seed, k, m.ver[k-m.lo])
	}
}
