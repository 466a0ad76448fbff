package tpcc

import (
	"sync"
	"testing"

	"veridb/internal/enclave"
	"veridb/internal/record"
	"veridb/internal/storage"
	"veridb/internal/vmem"
)

func smallCfg() Config {
	return Config{Warehouses: 2, Customers: 5, Items: 50}
}

func setup(t testing.TB, vc vmem.Config) (*Tables, *storage.Store) {
	t.Helper()
	mem, err := vmem.New(enclave.NewForTest(21), vc)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(mem)
	tables, err := CreateTables(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := Populate(tables, smallCfg(), 1); err != nil {
		t.Fatal(err)
	}
	return tables, st
}

func TestPopulateCounts(t *testing.T) {
	tables, _ := setup(t, vmem.Config{})
	cfg := smallCfg()
	if got := tables.Warehouse.RowCount(); got != cfg.Warehouses {
		t.Fatalf("warehouses %d", got)
	}
	if got := tables.District.RowCount(); got != cfg.Warehouses*DistrictsPerWarehouse {
		t.Fatalf("districts %d", got)
	}
	if got := tables.Customer.RowCount(); got != cfg.Warehouses*DistrictsPerWarehouse*cfg.Customers {
		t.Fatalf("customers %d", got)
	}
	if got := tables.Stock.RowCount(); got != cfg.Warehouses*cfg.Items {
		t.Fatalf("stock %d", got)
	}
	if got := tables.Item.RowCount(); got != cfg.Items {
		t.Fatalf("items %d", got)
	}
}

func TestNewOrderEffects(t *testing.T) {
	tables, st := setup(t, vmem.Config{})
	w := NewWorker(tables, smallCfg(), 0, 7)
	ordersBefore := tables.Orders.RowCount()
	if err := w.NewOrder(); err != nil {
		t.Fatal(err)
	}
	if tables.Orders.RowCount() != ordersBefore+1 {
		t.Fatal("order not inserted")
	}
	if tables.NewOrder.RowCount() != 1 {
		t.Fatal("new_order entry missing")
	}
	if tables.OrderLine.RowCount() < 5 {
		t.Fatalf("order lines %d", tables.OrderLine.RowCount())
	}
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPaymentEffects(t *testing.T) {
	tables, st := setup(t, vmem.Config{})
	w := NewWorker(tables, smallCfg(), 0, 7)
	if err := w.Payment(); err != nil {
		t.Fatal(err)
	}
	// Warehouse YTD grew.
	row, ev, err := tables.Warehouse.Get(record.Int(int64(w.home)))
	if err != nil || !ev.Found {
		t.Fatal(err)
	}
	if row[2].F <= 0 {
		t.Fatalf("w_ytd = %v", row[2].F)
	}
	if tables.History.RowCount() != 1 {
		t.Fatal("history row missing")
	}
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestMixedWorkloadSerial(t *testing.T) {
	tables, st := setup(t, vmem.Config{})
	w := NewWorker(tables, smallCfg(), 0, 9)
	for i := 0; i < 300; i++ {
		if err := w.Run(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if w.NewOrders == 0 || w.Payments == 0 || w.OrderStatuses == 0 {
		t.Fatalf("mix skewed: %d/%d/%d", w.NewOrders, w.Payments, w.OrderStatuses)
	}
	if err := st.Memory().VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWorkersVerifyClean(t *testing.T) {
	for name, vc := range map[string]vmem.Config{
		"1-rsws":   {Partitions: 1},
		"16-rsws":  {Partitions: 16},
		"128-rsws": {Partitions: 128},
	} {
		t.Run(name, func(t *testing.T) {
			tables, st := setup(t, vc)
			if err := st.Memory().StartVerifier(200); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					w := NewWorker(tables, smallCfg(), c, int64(100+c))
					for i := 0; i < 100; i++ {
						if err := w.Run(); err != nil {
							errs <- err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st.Memory().StopVerifier()
			if err := st.Memory().VerifyAll(); err != nil {
				t.Fatalf("post-workload verification: %v", err)
			}
		})
	}
}

func TestWorkersHaveDistinctHomes(t *testing.T) {
	tables, _ := setup(t, vmem.Config{})
	w0 := NewWorker(tables, smallCfg(), 0, 1)
	w1 := NewWorker(tables, smallCfg(), 1, 1)
	if w0.home == w1.home {
		t.Fatalf("workers share home warehouse %d", w0.home)
	}
}
