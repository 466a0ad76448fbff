// Package tpch generates a deterministic, scaled-down TPC-H-shaped dataset
// and provides the three queries the paper's macro-benchmark runs (§6.3:
// Q1, Q6 and Q19), plus straight-Go reference implementations used to
// check VeriDB's answers.
//
// Only the columns those queries touch are materialised; value
// distributions follow the TPC-H specification closely enough that the
// queries keep their selectivities (Q1 covers ~98 % of lineitem, Q6 ~2 %,
// Q19 a three-branch disjunction over a join). Dates are day numbers with
// 0 = 1992-01-01; the dataset spans 7 years like TPC-H's.
package tpch

import (
	"fmt"
	"math/rand"

	"veridb/internal/record"
	"veridb/internal/storage"
)

// Day numbering constants.
const (
	// LastShipDay is the largest generated l_shipdate.
	LastShipDay = 2526 // ≈ 1998-12-01
	// Q1CutoffDay is DATE '1998-12-01' - 90 days.
	Q1CutoffDay = LastShipDay - 90
	// Q6StartDay is DATE '1994-01-01'.
	Q6StartDay = 730
)

// Lineitem mirrors the columns of TPC-H lineitem used by Q1/Q6/Q19.
type Lineitem struct {
	ID            int64 // synthetic single-column primary key
	PartKey       int64
	Quantity      float64
	ExtendedPrice float64
	Discount      float64
	Tax           float64
	ReturnFlag    string
	LineStatus    string
	ShipDate      int64 // days since 1992-01-01
	ShipInstruct  string
	ShipMode      string
}

// Part mirrors the columns of TPC-H part used by Q19.
type Part struct {
	PartKey   int64
	Brand     string
	Container string
	Size      int64
}

var (
	returnFlags   = []string{"R", "A", "N"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"AIR", "AIR REG", "TRUCK", "MAIL", "SHIP", "RAIL", "FOB"}
	containers    = []string{
		"SM CASE", "SM BOX", "SM PACK", "SM PKG",
		"MED BAG", "MED BOX", "MED PKG", "MED PACK",
		"LG CASE", "LG BOX", "LG PACK", "LG PKG",
		"JUMBO DRUM", "WRAP JAR",
	}
)

// Dataset is one generated instance.
type Dataset struct {
	Lineitems []Lineitem
	Parts     []Part
}

// Generate builds a dataset with the given table sizes (deterministic for
// a seed). TPC-H SF1 has 6 M lineitems and 200 k parts; callers scale
// down, keeping the 30:1 ratio for faithful join selectivity.
func Generate(nLineitems, nParts int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Lineitems: make([]Lineitem, nLineitems),
		Parts:     make([]Part, nParts),
	}
	for i := range d.Parts {
		d.Parts[i] = Part{
			PartKey:   int64(i + 1),
			Brand:     fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5)),
			Container: containers[rng.Intn(len(containers))],
			Size:      int64(1 + rng.Intn(50)),
		}
	}
	for i := range d.Lineitems {
		ship := int64(rng.Intn(LastShipDay + 1))
		// Return flag correlates with receipt date in TPC-H; a coarse
		// approximation keeps Q1's group sizes realistic.
		rf := "N"
		if ship < 1700 {
			rf = returnFlags[rng.Intn(2)] // R or A for old lines
		}
		ls := "O"
		if ship < 1900 {
			ls = "F"
		}
		d.Lineitems[i] = Lineitem{
			ID:            int64(i + 1),
			PartKey:       int64(1 + rng.Intn(nParts)),
			Quantity:      float64(1 + rng.Intn(50)),
			ExtendedPrice: 900 + rng.Float64()*104000,
			Discount:      float64(rng.Intn(11)) / 100, // 0.00..0.10
			Tax:           float64(rng.Intn(9)) / 100,
			ReturnFlag:    rf,
			LineStatus:    ls,
			ShipDate:      ship,
			ShipInstruct:  shipInstructs[rng.Intn(len(shipInstructs))],
			ShipMode:      shipModes[rng.Intn(len(shipModes))],
		}
	}
	return d
}

// CreateTablesSQL returns the DDL for the two tables. l_shipdate gets a
// chain so Q1/Q6's date predicate can use a verified range scan.
func CreateTablesSQL() []string {
	return []string{
		`CREATE TABLE lineitem (
			l_id INT PRIMARY KEY,
			l_partkey INT,
			l_quantity FLOAT,
			l_extendedprice FLOAT,
			l_discount FLOAT,
			l_tax FLOAT,
			l_returnflag TEXT,
			l_linestatus TEXT,
			l_shipdate INT,
			l_shipinstruct TEXT,
			l_shipmode TEXT,
			INDEX(l_shipdate)
		)`,
		`CREATE TABLE part (
			p_partkey INT PRIMARY KEY,
			p_brand TEXT,
			p_container TEXT,
			p_size INT
		)`,
	}
}

// LineitemTuple converts a row for storage insertion.
func LineitemTuple(l Lineitem) record.Tuple {
	return record.Tuple{
		record.Int(l.ID), record.Int(l.PartKey), record.Float(l.Quantity),
		record.Float(l.ExtendedPrice), record.Float(l.Discount), record.Float(l.Tax),
		record.Text(l.ReturnFlag), record.Text(l.LineStatus), record.Int(l.ShipDate),
		record.Text(l.ShipInstruct), record.Text(l.ShipMode),
	}
}

// PartTuple converts a row for storage insertion.
func PartTuple(p Part) record.Tuple {
	return record.Tuple{
		record.Int(p.PartKey), record.Text(p.Brand), record.Text(p.Container), record.Int(p.Size),
	}
}

// Load inserts the dataset into a store holding the CreateTablesSQL tables.
func Load(st *storage.Store, d *Dataset) error {
	li, err := st.Table("lineitem")
	if err != nil {
		return err
	}
	for _, l := range d.Lineitems {
		if err := li.InsertAt(LineitemTuple(l), nil); err != nil {
			return err
		}
	}
	pt, err := st.Table("part")
	if err != nil {
		return err
	}
	for _, p := range d.Parts {
		if err := pt.InsertAt(PartTuple(p), nil); err != nil {
			return err
		}
	}
	return nil
}

// Q1SQL is TPC-H Query 1 (pricing summary report).
func Q1SQL() string {
	return fmt.Sprintf(`
		SELECT l_returnflag, l_linestatus,
			SUM(l_quantity) AS sum_qty,
			SUM(l_extendedprice) AS sum_base_price,
			SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
			SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
			AVG(l_quantity) AS avg_qty,
			AVG(l_extendedprice) AS avg_price,
			AVG(l_discount) AS avg_disc,
			COUNT(*) AS count_order
		FROM lineitem
		WHERE l_shipdate <= %d
		GROUP BY l_returnflag, l_linestatus
		ORDER BY l_returnflag, l_linestatus`, Q1CutoffDay)
}

// Q6SQL is TPC-H Query 6 (forecasting revenue change).
func Q6SQL() string {
	return fmt.Sprintf(`
		SELECT SUM(l_extendedprice * l_discount) AS revenue
		FROM lineitem
		WHERE l_shipdate >= %d AND l_shipdate < %d
			AND l_discount BETWEEN 0.05 AND 0.07
			AND l_quantity < 24`, Q6StartDay, Q6StartDay+365)
}

// Q19SQL is TPC-H Query 19 (discounted revenue): a Sum over a Join of two
// multidimensional range predicates (§6.3's description).
func Q19SQL() string {
	return `
		SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM lineitem, part
		WHERE p_partkey = l_partkey
			AND ((p_brand = 'Brand#12'
				AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
				AND l_quantity >= 1 AND l_quantity <= 11
				AND p_size BETWEEN 1 AND 5
				AND l_shipmode IN ('AIR', 'AIR REG')
				AND l_shipinstruct = 'DELIVER IN PERSON')
			OR (p_brand = 'Brand#23'
				AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
				AND l_quantity >= 10 AND l_quantity <= 20
				AND p_size BETWEEN 1 AND 10
				AND l_shipmode IN ('AIR', 'AIR REG')
				AND l_shipinstruct = 'DELIVER IN PERSON')
			OR (p_brand = 'Brand#34'
				AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
				AND l_quantity >= 20 AND l_quantity <= 30
				AND p_size BETWEEN 1 AND 15
				AND l_shipmode IN ('AIR', 'AIR REG')
				AND l_shipinstruct = 'DELIVER IN PERSON'))`
}

// Q1Row is one reference Q1 output row.
type Q1Row struct {
	ReturnFlag, LineStatus              string
	SumQty, SumBase, SumDisc, SumCharge float64
	AvgQty, AvgPrice, AvgDisc           float64
	Count                               int64
}

// RefQ1 computes Q1 directly over the dataset.
func RefQ1(d *Dataset) []Q1Row {
	type acc struct {
		qty, base, disc, charge, discSum float64
		n                                int64
	}
	groups := map[[2]string]*acc{}
	for _, l := range d.Lineitems {
		if l.ShipDate > Q1CutoffDay {
			continue
		}
		k := [2]string{l.ReturnFlag, l.LineStatus}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		a.qty += l.Quantity
		a.base += l.ExtendedPrice
		a.disc += l.ExtendedPrice * (1 - l.Discount)
		a.charge += l.ExtendedPrice * (1 - l.Discount) * (1 + l.Tax)
		a.discSum += l.Discount
		a.n++
	}
	var keys [][2]string
	for k := range groups {
		keys = append(keys, k)
	}
	// Sort by (flag, status).
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j][0] < keys[i][0] || (keys[j][0] == keys[i][0] && keys[j][1] < keys[i][1]) {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	out := make([]Q1Row, 0, len(keys))
	for _, k := range keys {
		a := groups[k]
		out = append(out, Q1Row{
			ReturnFlag: k[0], LineStatus: k[1],
			SumQty: a.qty, SumBase: a.base, SumDisc: a.disc, SumCharge: a.charge,
			AvgQty: a.qty / float64(a.n), AvgPrice: a.base / float64(a.n),
			AvgDisc: a.discSum / float64(a.n), Count: a.n,
		})
	}
	return out
}

// RefQ6 computes Q6 directly over the dataset.
func RefQ6(d *Dataset) float64 {
	var rev float64
	for _, l := range d.Lineitems {
		if l.ShipDate >= Q6StartDay && l.ShipDate < Q6StartDay+365 &&
			l.Discount >= 0.05 && l.Discount <= 0.07 && l.Quantity < 24 {
			rev += l.ExtendedPrice * l.Discount
		}
	}
	return rev
}

// RefQ19 computes Q19 directly over the dataset.
func RefQ19(d *Dataset) float64 {
	parts := make(map[int64]Part, len(d.Parts))
	for _, p := range d.Parts {
		parts[p.PartKey] = p
	}
	in := func(s string, set ...string) bool {
		for _, x := range set {
			if s == x {
				return true
			}
		}
		return false
	}
	var rev float64
	for _, l := range d.Lineitems {
		p, ok := parts[l.PartKey]
		if !ok {
			continue
		}
		if !in(l.ShipMode, "AIR", "AIR REG") || l.ShipInstruct != "DELIVER IN PERSON" {
			continue
		}
		b1 := p.Brand == "Brand#12" && in(p.Container, "SM CASE", "SM BOX", "SM PACK", "SM PKG") &&
			l.Quantity >= 1 && l.Quantity <= 11 && p.Size >= 1 && p.Size <= 5
		b2 := p.Brand == "Brand#23" && in(p.Container, "MED BAG", "MED BOX", "MED PKG", "MED PACK") &&
			l.Quantity >= 10 && l.Quantity <= 20 && p.Size >= 1 && p.Size <= 10
		b3 := p.Brand == "Brand#34" && in(p.Container, "LG CASE", "LG BOX", "LG PACK", "LG PKG") &&
			l.Quantity >= 20 && l.Quantity <= 30 && p.Size >= 1 && p.Size <= 15
		if b1 || b2 || b3 {
			rev += l.ExtendedPrice * (1 - l.Discount)
		}
	}
	return rev
}
