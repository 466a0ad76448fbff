// Package tpcc implements a TPC-C-shaped transactional workload for the
// paper's concurrency experiment (§6.3, Fig. 13: throughput on a
// 20-warehouse configuration while varying the number of clients and the
// number of RSWSs). Tables, population rules and the transaction mix
// follow the TPC-C specification's shape at configurable scale: New-Order
// and Payment carry the write traffic, Order-Status adds reads.
//
// Transactions run directly against the verifiable storage layer (the
// paper's TPC-C numbers measure the storage/verification path, not SQL
// parsing).
package tpcc

import (
	"fmt"
	"math/rand"

	"veridb/internal/record"
	"veridb/internal/storage"
)

// Scale parameters (full TPC-C values in comments).
const (
	// DistrictsPerWarehouse is 10 as in TPC-C.
	DistrictsPerWarehouse = 10
	// CustomersPerDistrict is 3000 in TPC-C; scaled down by default.
	CustomersPerDistrict = 30
	// ItemCount is 100000 in TPC-C; scaled down.
	ItemCount = 1000
	// StockPerWarehouse equals ItemCount.
	StockPerWarehouse = ItemCount
)

// Config sizes the workload.
type Config struct {
	Warehouses int
	// CustomersPerDistrict and Items override the scaled defaults when >0.
	Customers int
	Items     int
}

func (c Config) withDefaults() Config {
	if c.Warehouses <= 0 {
		c.Warehouses = 20
	}
	if c.Customers <= 0 {
		c.Customers = CustomersPerDistrict
	}
	if c.Items <= 0 {
		c.Items = ItemCount
	}
	return c
}

// Composite key helpers: all tables use a single INT primary key.
func districtID(w, d int) int64 { return int64(w)*100 + int64(d) }
func customerID(w, d, c int) int64 {
	return int64(w)*1_000_000 + int64(d)*100_000 + int64(c)
}
func stockID(w, i int) int64 { return int64(w)*1_000_000 + int64(i) }
func orderID(w, d, o int) int64 {
	return int64(w)*100_000_000 + int64(d)*10_000_000 + int64(o)
}
func orderLineID(w, d, o, l int) int64 { return orderID(w, d, o)*100 + int64(l) }

// Tables is the set of populated tables.
type Tables struct {
	Warehouse, District, Customer, Item, Stock *storage.Table
	Orders, OrderLine, NewOrder, History       *storage.Table
}

// CreateTables creates the nine TPC-C tables.
func CreateTables(st *storage.Store) (*Tables, error) {
	mk := func(name string, spec storage.TableSpec) (*storage.Table, error) {
		spec.Name = name
		return st.CreateTable(spec)
	}
	var t Tables
	var err error
	if t.Warehouse, err = mk("warehouse", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "w_id", Type: record.TypeInt},
			record.Column{Name: "w_name", Type: record.TypeText},
			record.Column{Name: "w_ytd", Type: record.TypeFloat},
		)}); err != nil {
		return nil, err
	}
	if t.District, err = mk("district", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "d_id", Type: record.TypeInt},
			record.Column{Name: "d_name", Type: record.TypeText},
			record.Column{Name: "d_ytd", Type: record.TypeFloat},
			record.Column{Name: "d_next_o_id", Type: record.TypeInt},
		)}); err != nil {
		return nil, err
	}
	if t.Customer, err = mk("customer", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "c_id", Type: record.TypeInt},
			record.Column{Name: "c_name", Type: record.TypeText},
			record.Column{Name: "c_balance", Type: record.TypeFloat},
			record.Column{Name: "c_ytd_payment", Type: record.TypeFloat},
			record.Column{Name: "c_payment_cnt", Type: record.TypeInt},
		)}); err != nil {
		return nil, err
	}
	if t.Item, err = mk("item", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "i_id", Type: record.TypeInt},
			record.Column{Name: "i_name", Type: record.TypeText},
			record.Column{Name: "i_price", Type: record.TypeFloat},
		)}); err != nil {
		return nil, err
	}
	if t.Stock, err = mk("stock", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "s_id", Type: record.TypeInt},
			record.Column{Name: "s_quantity", Type: record.TypeInt},
			record.Column{Name: "s_ytd", Type: record.TypeInt},
			record.Column{Name: "s_order_cnt", Type: record.TypeInt},
		)}); err != nil {
		return nil, err
	}
	if t.Orders, err = mk("orders", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "o_id", Type: record.TypeInt},
			record.Column{Name: "o_c_id", Type: record.TypeInt},
			record.Column{Name: "o_ol_cnt", Type: record.TypeInt},
			record.Column{Name: "o_entry_d", Type: record.TypeInt},
		)}); err != nil {
		return nil, err
	}
	if t.OrderLine, err = mk("order_line", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "ol_id", Type: record.TypeInt},
			record.Column{Name: "ol_i_id", Type: record.TypeInt},
			record.Column{Name: "ol_quantity", Type: record.TypeInt},
			record.Column{Name: "ol_amount", Type: record.TypeFloat},
		)}); err != nil {
		return nil, err
	}
	if t.NewOrder, err = mk("new_order", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "no_o_id", Type: record.TypeInt},
		)}); err != nil {
		return nil, err
	}
	if t.History, err = mk("history", storage.TableSpec{
		Schema: record.NewSchema(
			record.Column{Name: "h_id", Type: record.TypeInt},
			record.Column{Name: "h_c_id", Type: record.TypeInt},
			record.Column{Name: "h_amount", Type: record.TypeFloat},
		)}); err != nil {
		return nil, err
	}
	return &t, nil
}

// Populate loads the initial database state.
func Populate(t *Tables, cfg Config, seed int64) error {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= cfg.Items; i++ {
		err := t.Item.Insert(record.Tuple{
			record.Int(int64(i)),
			record.Text(fmt.Sprintf("item-%d", i)),
			record.Float(1 + rng.Float64()*99),
		})
		if err != nil {
			return err
		}
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		err := t.Warehouse.Insert(record.Tuple{
			record.Int(int64(w)), record.Text(fmt.Sprintf("wh-%d", w)), record.Float(0),
		})
		if err != nil {
			return err
		}
		for i := 1; i <= cfg.Items; i++ {
			err := t.Stock.Insert(record.Tuple{
				record.Int(stockID(w, i)),
				record.Int(int64(10 + rng.Intn(91))),
				record.Int(0), record.Int(0),
			})
			if err != nil {
				return err
			}
		}
		for d := 1; d <= DistrictsPerWarehouse; d++ {
			err := t.District.Insert(record.Tuple{
				record.Int(districtID(w, d)),
				record.Text(fmt.Sprintf("dist-%d-%d", w, d)),
				record.Float(0), record.Int(1),
			})
			if err != nil {
				return err
			}
			for c := 1; c <= cfg.Customers; c++ {
				err := t.Customer.Insert(record.Tuple{
					record.Int(customerID(w, d, c)),
					record.Text(fmt.Sprintf("cust-%d-%d-%d", w, d, c)),
					record.Float(-10), record.Float(10), record.Int(1),
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Worker drives transactions for one client; each worker has a home
// warehouse as in TPC-C.
type Worker struct {
	t    *Tables
	cfg  Config
	rng  *rand.Rand
	home int
	hseq int64 // history key sequence (per worker, non-conflicting)
	id   int

	// Stats
	NewOrders, Payments, OrderStatuses int
}

// NewWorker builds a client bound to a home warehouse.
func NewWorker(t *Tables, cfg Config, id int, seed int64) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{
		t: t, cfg: cfg, id: id,
		rng:  rand.New(rand.NewSource(seed)),
		home: 1 + id%cfg.Warehouses,
	}
}

// Run executes one transaction from the TPC-C mix (45 % New-Order, 43 %
// Payment, 12 % Order-Status by deck shuffle approximation).
func (w *Worker) Run() error {
	switch r := w.rng.Intn(100); {
	case r < 45:
		w.NewOrders++
		return w.NewOrder()
	case r < 88:
		w.Payments++
		return w.Payment()
	default:
		w.OrderStatuses++
		return w.OrderStatus()
	}
}

// NewOrder is the TPC-C New-Order transaction: read the district's next
// order id, bump it, read item prices, update stock rows, insert the
// order, its lines and the new-order entry.
func (w *Worker) NewOrder() error {
	d := 1 + w.rng.Intn(DistrictsPerWarehouse)
	did := districtID(w.home, d)
	// Atomically allocate the district's next order id (the row-level
	// read-modify-write TPC-C requires).
	var oID int
	err := w.t.District.UpdateFunc(record.Int(did), func(row record.Tuple) (record.Tuple, error) {
		oID = int(row[3].I)
		row[3] = record.Int(int64(oID + 1))
		return row, nil
	})
	if err != nil {
		return fmt.Errorf("tpcc: district %d: %w", did, err)
	}
	nLines := 5 + w.rng.Intn(11) // 5..15 as in TPC-C
	cid := customerID(w.home, d, 1+w.rng.Intn(w.cfg.Customers))
	oid := orderID(w.home, d, oID)
	err = w.t.Orders.Insert(record.Tuple{
		record.Int(oid), record.Int(cid), record.Int(int64(nLines)), record.Int(0),
	})
	if err != nil {
		return err
	}
	if err := w.t.NewOrder.Insert(record.Tuple{record.Int(oid)}); err != nil {
		return err
	}
	for l := 1; l <= nLines; l++ {
		item := 1 + w.rng.Intn(w.cfg.Items)
		// 1 % of lines hit a remote warehouse, as in TPC-C.
		wh := w.home
		if w.rng.Intn(100) == 0 && w.cfg.Warehouses > 1 {
			wh = 1 + w.rng.Intn(w.cfg.Warehouses)
		}
		iRow, ev, err := w.t.Item.Get(record.Int(int64(item)))
		if err != nil || !ev.Found {
			return fmt.Errorf("tpcc: item %d missing: %w", item, err)
		}
		price := iRow[2].F
		sid := stockID(wh, item)
		qty := 1 + w.rng.Intn(10)
		err = w.t.Stock.UpdateFunc(record.Int(sid), func(row record.Tuple) (record.Tuple, error) {
			sQty := row[1].I - int64(qty)
			if sQty < 10 {
				sQty += 91
			}
			row[1] = record.Int(sQty)
			row[2] = record.Int(row[2].I + int64(qty))
			row[3] = record.Int(row[3].I + 1)
			return row, nil
		})
		if err != nil {
			return fmt.Errorf("tpcc: stock %d: %w", sid, err)
		}
		err = w.t.OrderLine.Insert(record.Tuple{
			record.Int(orderLineID(w.home, d, oID, l)),
			record.Int(int64(item)), record.Int(int64(qty)),
			record.Float(float64(qty) * price),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Payment updates warehouse, district and customer balances and logs a
// history row.
func (w *Worker) Payment() error {
	d := 1 + w.rng.Intn(DistrictsPerWarehouse)
	amount := 1 + w.rng.Float64()*4999
	err := w.t.Warehouse.UpdateFunc(record.Int(int64(w.home)), func(row record.Tuple) (record.Tuple, error) {
		row[2] = record.Float(row[2].F + amount)
		return row, nil
	})
	if err != nil {
		return fmt.Errorf("tpcc: warehouse %d: %w", w.home, err)
	}
	did := districtID(w.home, d)
	err = w.t.District.UpdateFunc(record.Int(did), func(row record.Tuple) (record.Tuple, error) {
		row[2] = record.Float(row[2].F + amount)
		return row, nil
	})
	if err != nil {
		return fmt.Errorf("tpcc: district %d: %w", did, err)
	}
	cid := customerID(w.home, d, 1+w.rng.Intn(w.cfg.Customers))
	err = w.t.Customer.UpdateFunc(record.Int(cid), func(row record.Tuple) (record.Tuple, error) {
		row[2] = record.Float(row[2].F - amount)
		row[3] = record.Float(row[3].F + amount)
		row[4] = record.Int(row[4].I + 1)
		return row, nil
	})
	if err != nil {
		return fmt.Errorf("tpcc: customer %d: %w", cid, err)
	}
	w.hseq++
	return w.t.History.Insert(record.Tuple{
		record.Int(int64(w.id)*1_000_000_000 + w.hseq),
		record.Int(cid), record.Float(amount),
	})
}

// OrderStatus reads a customer and scans their most recent order lines.
func (w *Worker) OrderStatus() error {
	d := 1 + w.rng.Intn(DistrictsPerWarehouse)
	cid := customerID(w.home, d, 1+w.rng.Intn(w.cfg.Customers))
	if _, _, err := w.t.Customer.Get(record.Int(cid)); err != nil {
		return err
	}
	// Scan a small order-line range for the district (verified range scan).
	lo := record.Int(orderLineID(w.home, d, 1, 0))
	hi := record.Int(orderLineID(w.home, d, 3, 99))
	sc, err := w.t.OrderLine.RangeScan(0, &lo, &hi)
	if err != nil {
		return err
	}
	defer sc.Close()
	for {
		_, ok, err := sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
