// Command experiments regenerates the tables and figures of the MinoanER
// paper's evaluation (§6) on the synthetic benchmark presets. Performance is
// measured elsewhere: by the repository benchmark under benchmark/ and by the
// Go benchmarks in bench_test.go.
//
// Usage:
//
//	experiments -all                  # everything (Tables 1–4, Figures 2, 5, 6)
//	experiments -table 3              # one table
//	experiments -figure 2 -csv f2.csv # one figure, plus raw CSV points
//	experiments -scale 0.2            # shrink datasets 5× for a quick run
//	experiments -datasets Restaurant,YAGO-IMDb
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"minoaner/internal/experiments"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one table (1–4)")
		figure   = flag.Int("figure", 0, "regenerate one figure (2, 5 or 6)")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		datasets = flag.String("datasets", "", "comma-separated preset names (default: all four)")
		csvPath  = flag.String("csv", "", "write Figure 2 points as CSV to this path")
	)
	flag.Parse()
	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}
	suite, err := experiments.NewSuite(experiments.Options{
		ScaleFactor: *scale,
		Workers:     *workers,
		Datasets:    names,
	})
	exitOn(err)

	run := func(id string, f func() error) {
		fmt.Printf("==== %s ====\n", id)
		exitOn(f())
		fmt.Println()
	}
	wantTable := func(n int) bool { return *all || *table == n }
	wantFigure := func(n int) bool { return *all || *figure == n }

	if wantTable(1) {
		run("Table 1: dataset statistics", func() error {
			rows, err := suite.Table1()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable1(rows))
			return nil
		})
	}
	if wantTable(2) {
		run("Table 2: block statistics", func() error {
			rows, err := suite.Table2()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable2(rows))
			return nil
		})
	}
	if wantFigure(2) {
		run("Figure 2: value vs neighbor similarity of matches", func() error {
			points, err := suite.Figure2()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure2(points))
			if *csvPath != "" {
				if err := os.WriteFile(*csvPath, []byte(experiments.Figure2CSV(points)), 0o644); err != nil {
					return err
				}
				fmt.Printf("(points written to %s)\n", *csvPath)
			}
			return nil
		})
	}
	if wantTable(3) {
		run("Table 3: comparison with baselines", func() error {
			rows, err := suite.Table3()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable3(rows))
			return nil
		})
	}
	if wantTable(4) {
		run("Table 4: matching-rule evaluation", func() error {
			rows, err := suite.Table4()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable4(rows))
			return nil
		})
	}
	if wantFigure(5) {
		run("Figure 5: parameter sensitivity", func() error {
			points, err := suite.Figure5()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure5(points))
			return nil
		})
	}
	if wantFigure(6) {
		run("Figure 6: scalability", func() error {
			points, err := suite.Figure6()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure6(points))
			return nil
		})
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
