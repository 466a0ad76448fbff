// Analytics: verified analytical queries over a sales-fact table, in the
// style of the paper's TPC-H macro-benchmark (§6.3). The example prints
// each query's verified run time and the PRF evaluations its verified
// scans cost; the verified-vs-Baseline comparison Fig. 12 plots is the
// figure harness's BenchmarkFig12 (go test -bench Fig12 in the repo root).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"veridb"
)

const rows = 20_000

func load() *veridb.DB {
	db, err := veridb.Open(veridb.Config{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE sales (
		id INT PRIMARY KEY,
		region TEXT,
		day INT,
		quantity INT,
		price FLOAT,
		discount FLOAT,
		INDEX(day)
	)`); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	regions := []string{"north", "south", "east", "west"}
	var batch []string
	flush := func() {
		if len(batch) == 0 {
			return
		}
		q := "INSERT INTO sales VALUES " + strings.Join(batch, ",")
		if _, err := db.Exec(q); err != nil {
			log.Fatal(err)
		}
		batch = batch[:0]
	}
	for i := 1; i <= rows; i++ {
		batch = append(batch, fmt.Sprintf("(%d,'%s',%d,%d,%.2f,%.2f)",
			i, regions[rng.Intn(4)], rng.Intn(365), 1+rng.Intn(50),
			1+rng.Float64()*999, float64(rng.Intn(11))/100))
		if len(batch) == 500 {
			flush()
		}
	}
	flush()
	return db
}

func main() {
	queries := map[string]string{
		"pricing summary (Q1-style)": `
			SELECT region, COUNT(*) AS orders,
				SUM(price * quantity) AS gross,
				SUM(price * quantity * (1 - discount)) AS net,
				AVG(discount) AS avg_disc
			FROM sales
			WHERE day <= 300
			GROUP BY region
			ORDER BY region`,
		"revenue slice (Q6-style)": `
			SELECT SUM(price * quantity * discount) AS recovered
			FROM sales
			WHERE day >= 60 AND day < 120
				AND discount BETWEEN 0.05 AND 0.07
				AND quantity < 24`,
	}

	db := load()
	defer db.Close()

	for name, q := range queries {
		before := db.Stats().PRFEvals
		t0 := time.Now()
		res, err := db.Exec(q)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)

		fmt.Printf("== %s ==\n", name)
		fmt.Println(strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Printf("verified in %v, %d PRF evaluations\n\n",
			elapsed.Round(time.Millisecond), db.Stats().PRFEvals-before)
	}

	if err := db.Verify(); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	s := db.Stats()
	fmt.Printf("verification passed: %d PRF evaluations over %d protected ops\n", s.PRFEvals, s.Ops)
	fmt.Println("verified vs Baseline (the paper reports 9-39% overhead): go test -run '^$' -bench Fig12 .")
}
