package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"veridb"
	"veridb/internal/core"
	"veridb/internal/record"
	"veridb/internal/sql"
	"veridb/internal/storage"
	"veridb/internal/workload/tpch"
)

// wire_scan_analytic: a TPC-H-shaped lineitem/part pair in memory; each
// client rotates five query shapes, each bounded to a random range of
// consecutive lineitem keys, so one query scans a few thousand rows and
// returns at most a hundred. engine operators, the storage scanner's chain
// verification, record decode and the vmem read PRF per row do nearly all
// the work; wire and portal cost is amortised over the rows, wal is idle.
type scanAnalytic struct {
	*wireInstance
	d *tpch.Dataset
}

// shapes are the five query shapes, in rotation order.
var shapes = []string{"agg", "group", "topn", "q6", "join"}

// floatTol is the relative tolerance on floating-point answers: the engine
// and the reference may add the same terms in different orders.
const floatTol = 1e-9

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= floatTol*math.Max(1, math.Abs(want))
}

// insertSQL renders rows as multi-row INSERT statements, loadBatch rows
// each.
func insertSQL(table string, rows []record.Tuple) []string {
	var out []string
	var sb strings.Builder
	for lo := 0; lo < len(rows); lo += loadBatch {
		sb.Reset()
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < lo+loadBatch && i < len(rows); i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			sb.WriteByte('(')
			for j, v := range rows[i] {
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(sql.FormatValue(v))
			}
			sb.WriteByte(')')
		}
		out = append(out, sb.String())
	}
	return out
}

// loadTPCH creates and fills lineitem and part through exec.
func loadTPCH(exec func(string) error, d *tpch.Dataset) error {
	for _, ddl := range tpch.CreateTablesSQL() {
		if err := exec(ddl); err != nil {
			return err
		}
	}
	li := make([]record.Tuple, len(d.Lineitems))
	for i, l := range d.Lineitems {
		li[i] = tpch.LineitemTuple(l)
	}
	pt := make([]record.Tuple, len(d.Parts))
	for i, p := range d.Parts {
		pt[i] = tpch.PartTuple(p)
	}
	for _, q := range append(insertSQL("lineitem", li), insertSQL("part", pt)...) {
		if err := exec(q); err != nil {
			return err
		}
	}
	return nil
}

// tpchGate runs the full Q1, Q6 and Q19 through query and compares them
// with the straight-Go references.
func tpchGate(query func(string) ([]record.Tuple, error), d *tpch.Dataset) error {
	rows, err := query(tpch.Q1SQL())
	if err != nil {
		return fmt.Errorf("Q1: %w", err)
	}
	ref := tpch.RefQ1(d)
	if len(rows) != len(ref) {
		return fmt.Errorf("Q1: %d groups, reference has %d", len(rows), len(ref))
	}
	for i, r := range ref {
		got := rows[i]
		ok := got[0].S == r.ReturnFlag && got[1].S == r.LineStatus && got[9].I == r.Count
		for j, want := range []float64{r.SumQty, r.SumBase, r.SumDisc, r.SumCharge, r.AvgQty, r.AvgPrice, r.AvgDisc} {
			ok = ok && closeTo(got[2+j].F, want)
		}
		if !ok {
			return fmt.Errorf("Q1 group %d: got %v, reference %+v", i, got, r)
		}
	}
	for _, q := range []struct {
		name, text string
		want       float64
	}{{"Q6", tpch.Q6SQL(), tpch.RefQ6(d)}, {"Q19", tpch.Q19SQL(), tpch.RefQ19(d)}} {
		rows, err := query(q.text)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if len(rows) != 1 || !closeTo(sumValue(rows[0][0]), q.want) {
			return fmt.Errorf("%s: got %v, reference %v", q.name, rows, q.want)
		}
	}
	return nil
}

// sumValue reads a SUM result, which is NULL over no rows.
func sumValue(v record.Value) float64 {
	if v.Null {
		return 0
	}
	return v.F
}

func setupScanAnalytic(o *options, seed int64, _ string) (instance, error) {
	d := tpch.Generate(o.sz.lineitems, o.sz.parts, seed)
	w, err := openWire(seed, "", o.sz.clients, func(db *veridb.DB) error {
		if err := loadTPCH(execOn(db), d); err != nil {
			return err
		}
		return tpchGate(func(q string) ([]record.Tuple, error) {
			res, err := db.Exec(q)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}, d)
	})
	if err != nil {
		return nil, err
	}
	for i := range w.env.clients {
		w.streams = append(w.streams, &scanStream{rng: clientRNG(seed, i), d: d, span: o.sz.scanSpan})
	}
	return &scanAnalytic{wireInstance: w, d: d}, nil
}

// scanStream rotates the five shapes over random key ranges.
type scanStream struct {
	rng  *rand.Rand
	d    *tpch.Dataset
	span int
	n    int
}

// draw picks the next shape and its key range [lo, hi].
func (s *scanStream) draw() (shape string, lo, hi int) {
	shape = shapes[s.n%len(shapes)]
	s.n++
	lo = 1 + s.rng.Intn(len(s.d.Lineitems)-s.span+1)
	return shape, lo, lo + s.span - 1
}

// scanArgs is what a scan statement drew.
type scanArgs struct {
	shape  string
	lo, hi int
}

func (s *scanStream) next() stmt {
	shape, lo, hi := s.draw()
	text, want := scanQuery(s.d, shape, lo, hi)
	return stmt{kind: shape, text: text, arg: scanArgs{shape, lo, hi}, check: func(rows []record.Tuple, _ int) error {
		return sameRows(rows, want)
	}}
}

// joinSizeMax and joinQtyMax bound the join shape's two-sided predicate.
const (
	joinSizeMax = 25
	joinQtyMax  = 25.0
)

// scanQuery renders one shape over lineitem keys [lo, hi] and computes its
// answer from the dataset.
func scanQuery(d *tpch.Dataset, shape string, lo, hi int) (string, []record.Tuple) {
	in := d.Lineitems[lo-1 : hi] // l_id is the 1-based position
	rng := fmt.Sprintf("l_id BETWEEN %d AND %d", lo, hi)
	switch shape {
	case "agg":
		var qty, price float64
		for _, l := range in {
			qty += l.Quantity
			price += l.ExtendedPrice
		}
		return `SELECT COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE ` + rng,
			[]record.Tuple{{record.Int(int64(len(in))), record.Float(qty), record.Float(price / float64(len(in)))}}
	case "group":
		type acc struct {
			n   int64
			qty float64
		}
		groups := map[[2]string]*acc{}
		for _, l := range in {
			if l.Discount < 0.05 {
				continue
			}
			k := [2]string{l.ReturnFlag, l.LineStatus}
			if groups[k] == nil {
				groups[k] = &acc{}
			}
			groups[k].n++
			groups[k].qty += l.Quantity
		}
		keys := make([][2]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
		})
		var want []record.Tuple
		for _, k := range keys {
			want = append(want, record.Tuple{record.Text(k[0]), record.Text(k[1]), record.Int(groups[k].n), record.Float(groups[k].qty)})
		}
		return `SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity) FROM lineitem WHERE ` + rng +
			` AND l_discount >= 0.05 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, want
	case "topn":
		top := append([]tpch.Lineitem(nil), in...)
		sort.Slice(top, func(i, j int) bool { return top[i].ExtendedPrice > top[j].ExtendedPrice })
		var want []record.Tuple
		for _, l := range top[:min(100, len(top))] {
			want = append(want, record.Tuple{record.Int(l.ID), record.Float(l.ExtendedPrice)})
		}
		return `SELECT l_id, l_extendedprice FROM lineitem WHERE ` + rng + ` ORDER BY l_extendedprice DESC LIMIT 100`, want
	case "q6":
		var rev float64
		for _, l := range in {
			if l.Discount >= 0.05 && l.Discount <= 0.07 && l.Quantity < 24 {
				rev += l.ExtendedPrice * l.Discount
			}
		}
		return `SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE ` + rng +
			` AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`, []record.Tuple{{record.Float(rev)}}
	default: // join
		var rev float64
		for _, l := range in {
			if l.Quantity <= joinQtyMax && d.Parts[l.PartKey-1].Size <= joinSizeMax {
				rev += l.ExtendedPrice * (1 - l.Discount)
			}
		}
		return fmt.Sprintf(`SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem, part WHERE p_partkey = l_partkey AND %s AND l_quantity <= %v AND p_size <= %d`,
			rng, joinQtyMax, joinSizeMax), []record.Tuple{{record.Float(rev)}}
	}
}

// sameRows compares an answer with the reference, floats within floatTol.
func sameRows(got, want []record.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %v, reference %v", i, got[i], want[i])
		}
		for j, w := range want[i] {
			g := got[i][j]
			same := g.Equal(w)
			if w.Type == record.TypeFloat && g.Type == record.TypeFloat {
				same = closeTo(sumValue(g), w.F)
			}
			if !same {
				return fmt.Errorf("row %d column %d: %v, reference %v", i, j, g, w)
			}
		}
	}
	return nil
}

// scanStorage is R3 for one query: the storage calls equivalent to its
// plan. Every shape range-scans lineitem keys [lo, hi] and drains the
// scanner batch-wise; the join shape also probes part by primary key for
// each row its pushed-down lineitem predicate keeps (the planner's
// index-nested-loop join). It returns the rows scanned.
func scanStorage(li, part storage.Engine, batch *storage.RowBatch, shape string, lo, hi int) (int, error) {
	l, h := record.Int(int64(lo)), record.Int(int64(hi))
	it, err := li.RangeScan(0, &l, &h)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	rows := 0
	for {
		n, err := it.NextBatch(batch)
		if err != nil || n == 0 {
			return rows, err
		}
		rows += n
		if shape != "join" {
			continue
		}
		for i := 0; i < n; i++ {
			r := batch.Row(i)
			if r[2].F > joinQtyMax {
				continue
			}
			if _, ev, err := part.Get(r[1]); err != nil || !ev.Found {
				return rows, fmt.Errorf("part %v: found %v: %v", r[1], ev.Found, err)
			}
		}
	}
}

func (s *scanAnalytic) ladder(o *options, seed int64, _ string, m *metrics) error {
	cdb, err := core.Open(coreConfig(seed, ""))
	if err != nil {
		return err
	}
	defer cdb.Close()
	query := func(q string) ([]record.Tuple, error) {
		res, err := cdb.Execute(q)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	if err := loadTPCH(func(q string) error { _, err := query(q); return err }, s.d); err != nil {
		return err
	}
	mem := cdb.Memory()
	mem.StopVerifier()
	li, err := cdb.Store().Table("lineitem")
	if err != nil {
		return err
	}
	part, err := cdb.Store().Table("part")
	if err != nil {
		return err
	}
	cl, err := cellLen(mem)
	if err != nil {
		return err
	}
	prims, err := measurePrims(seed, cl, o.sz.pointCalls)
	if err != nil {
		return fmt.Errorf("vmem primitives: %w", err)
	}
	m.set("record.codec_ns", recordCodecNS(min(o.sz.pointCalls, len(s.d.Lineitems)),
		func(i int) record.Tuple { return tpch.LineitemTuple(s.d.Lineitems[i]) }))

	// R3: the storage calls equivalent to the statement's plan; the shapes
	// that only scan also give the scanner's cost per row.
	span := o.sz.scanSpan
	batch := storage.NewRowBatch(storage.DefaultBatchCapacity)
	var perRowNS []float64
	r3 := func(st stmt) (float64, error) {
		a := st.arg.(scanArgs)
		var rows int
		us, err := timeCall(func() (err error) {
			rows, err = scanStorage(li, part, batch, a.shape, a.lo, a.hi)
			return err
		})
		if err == nil && a.shape != "join" {
			perRowNS = append(perRowNS, us*1e3/float64(rows))
		}
		return us, err
	}
	scans := func(i int) stream { return &scanStream{rng: clientRNG(seed, i), d: s.d, span: span} }
	countN := len(shapes) * max(1, o.sz.countOps/span)
	if err := countStatements(m, cdb, prims, scans(100), countN); err != nil {
		return err
	}
	m.set("engine.protected_ops_per_row", m.get("vmem.protected_ops_per_op")/float64(span))
	calls, err := countStorage(mem, prims, scans(100), r3, countN)
	if err != nil {
		return err
	}
	perRowNS = perRowNS[:0] // the counting pass ran under the hook

	perRung := func(rung int) stream { return scans(110 + rung) }
	if err := wireLadder(m, s.env.clients[0], s.env.db, cdb, perRung, perRung, r3, 0, o.sz.scanCalls); err != nil {
		return err
	}
	setLower(m, calls, prims)
	m.set("storage.scan_row_ns", median(perRowNS))
	m.set("engine.self_ms", (m.get("ladder.r2_us")-m.get("ladder.r3_us"))/1e3)

	// The paper's Fig. 12 queries, whole, for comparison.
	if err := tpchGate(query, s.d); err != nil {
		return err
	}
	for name, q := range map[string]string{
		"engine.tpch_q1_ms": tpch.Q1SQL(), "engine.tpch_q6_ms": tpch.Q6SQL(), "engine.tpch_q19_ms": tpch.Q19SQL(),
	} {
		us, err := medianOf(10, func(int) (float64, error) {
			return timeCall(func() error { _, err := query(q); return err })
		})
		if err != nil {
			return err
		}
		m.set(name, us/1e3)
	}
	return nil
}
