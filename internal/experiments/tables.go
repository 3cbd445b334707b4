package experiments

import (
	"context"
	"fmt"
	"strings"

	"minoaner/internal/baselines"
	"minoaner/internal/blocking"
	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// Table1 measures the dataset statistics of every suite dataset (paper
// Table 1).
func (s *Suite) Table1() ([]datagen.Table1Row, error) {
	var rows []datagen.Table1Row
	for _, name := range s.Names() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, d.Table1())
	}
	return rows, nil
}

// FormatTable1 renders Table 1 rows as fixed-width text.
func FormatTable1(rows []datagen.Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %9s %9s %10s %10s %8s %8s %9s %7s %9s %7s %8s\n",
		"Dataset", "E1 ents", "E2 ents", "E1 trpl", "E2 trpl",
		"E1 tok", "E2 tok", "attrs", "rels", "types", "vocab", "matches")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %9d %9d %10d %10d %8.2f %8.2f %4d/%-4d %3d/%-3d %5d/%-4d %3d/%-3d %8d\n",
			r.Dataset, r.E1Entities, r.E2Entities, r.E1Triples, r.E2Triples,
			r.E1AvgTokens, r.E2AvgTokens, r.E1Attrs, r.E2Attrs,
			r.E1Rels, r.E2Rels, r.E1Types, r.E2Types, r.E1Vocab, r.E2Vocab, r.Matches)
	}
	return b.String()
}

// Table2Row is one dataset's block statistics (paper Table 2).
type Table2Row struct {
	Dataset string
	blocking.Stats
}

// Table2 runs name + token blocking with purging on every dataset and
// reports |B_N|, |B_T|, ‖B_N‖, ‖B_T‖, the Cartesian baseline and blocking
// precision/recall/F1.
func (s *Suite) Table2() ([]Table2Row, error) {
	eng := parallel.New(s.opts.Workers)
	var rows []Table2Row
	for _, name := range s.Names() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		n1 := stats.NameAttributes(eng, d.K1, 2)
		n2 := stats.NameAttributes(eng, d.K2, 2)
		nameBlocks := blocking.NameBlocks(eng, d.K1, d.K2, n1, n2)
		tokenBlocks := blocking.TokenBlocks(eng, d.K1, d.K2)
		cap := int64(float64(d.K1.Len()) * float64(d.K2.Len()) * core.DefaultConfig().MaxBlockFraction)
		tokenBlocks, _ = blocking.PurgeAbove(tokenBlocks, cap)
		nl1 := stats.NewNameLookup(d.K1, n1)
		nameKeys := func(e1 kb.EntityID) []string {
			return nl1.Names(e1)
		}
		st := blocking.EvaluateBlocks(d.K1, d.K2, nameBlocks, tokenBlocks, d.GT, nameKeys)
		rows = append(rows, Table2Row{Dataset: name, Stats: st})
	}
	return rows, nil
}

// FormatTable2 renders Table 2 rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %8s %12s %14s %14s %10s %8s %8s\n",
		"Dataset", "|BN|", "|BT|", "||BN||", "||BT||", "|E1|x|E2|", "Prec%", "Recall%", "F1%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %8d %8d %12d %14d %14d %10.4f %8.2f %8.4f\n",
			r.Dataset, r.NameBlocks, r.TokenBlocks, r.NameComparisons, r.TokenComparisons,
			r.Cartesian, 100*r.Precision, 100*r.Recall, 100*r.F1)
	}
	return b.String()
}

// Table3Row is one (dataset, system) evaluation (paper Table 3).
type Table3Row struct {
	Dataset string
	System  string
	Metrics eval.Metrics
	// Config annotates the winning configuration for BSL.
	Config string
}

// Table3Systems lists the systems compared, in the paper's order.
var Table3Systems = []string{"SiGMa", "LINDA-style", "RiMOM-IM-style", "PARIS", "BSL", "MinoanER"}

// Table3 compares MinoanER against all reimplemented baselines on every
// dataset.
func (s *Suite) Table3() ([]Table3Row, error) {
	eng := parallel.New(s.opts.Workers)
	var rows []Table3Row
	for _, name := range s.Names() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		tokenBlocks := blocking.TokenBlocks(eng, d.K1, d.K2)
		cap := int64(float64(d.K1.Len()) * float64(d.K2.Len()) * core.DefaultConfig().MaxBlockFraction)
		tokenBlocks, _ = blocking.PurgeAbove(tokenBlocks, cap)

		sig := baselines.SiGMa(eng, d.K1, d.K2, tokenBlocks, baselines.DefaultSiGMaConfig())
		rows = append(rows, Table3Row{name, "SiGMa", eval.Evaluate(sig, d.GT), ""})

		lin := baselines.SiGMa(eng, d.K1, d.K2, tokenBlocks, baselines.LINDAStyleConfig())
		rows = append(rows, Table3Row{name, "LINDA-style", eval.Evaluate(lin, d.GT), ""})

		rim := baselines.RiMOMIM(eng, d.K1, d.K2, baselines.DefaultRiMOMConfig())
		rows = append(rows, Table3Row{name, "RiMOM-IM-style", eval.Evaluate(rim, d.GT), ""})

		par := baselines.PARIS(d.K1, d.K2, baselines.DefaultPARISConfig())
		rows = append(rows, Table3Row{name, "PARIS", eval.Evaluate(par, d.GT), ""})

		cands := baselines.CandidatePairs(5_000_000, tokenBlocks)
		bsl := baselines.BSL(eng, d.K1, d.K2, cands, d.GT)
		rows = append(rows, Table3Row{name, "BSL", bsl.Best.Metrics, bsl.Best.Config.String()})

		cfg := core.DefaultConfig()
		cfg.Workers = s.opts.Workers
		out, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{name, "MinoanER", eval.Evaluate(out.Pairs(), d.GT), ""})
	}
	return rows, nil
}

// FormatTable3 renders Table 3 rows grouped by dataset.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-15s %8s %8s %8s  %s\n", "Dataset", "System", "Prec%", "Recall%", "F1%", "config")
	last := ""
	for _, r := range rows {
		if r.Dataset != last {
			if last != "" {
				b.WriteString("\n")
			}
			last = r.Dataset
		}
		fmt.Fprintf(&b, "%-18s %-15s %8.2f %8.2f %8.2f  %s\n",
			r.Dataset, r.System, 100*r.Metrics.Precision, 100*r.Metrics.Recall, 100*r.Metrics.F1, r.Config)
	}
	return b.String()
}

// Table4Row is one (dataset, configuration) rule evaluation (paper Table 4).
type Table4Row struct {
	Dataset string
	Setting string
	Metrics eval.Metrics
}

// Table4Settings lists the rule ablations, in the paper's order.
var Table4Settings = []string{"R1", "R2", "R3", "noR4", "NoNeighbors", "Full"}

// Table4 evaluates each matching rule alone, the pipeline without the
// reciprocity filter, and the pipeline without neighbor evidence.
func (s *Suite) Table4() ([]Table4Row, error) {
	configs := map[string]matching.Config{
		"R1":          {Theta: 0.6, EnableR1: true, UseNeighbors: true},
		"R2":          {Theta: 0.6, EnableR2: true, UseNeighbors: true},
		"R3":          {Theta: 0.6, EnableR3: true, UseNeighbors: true},
		"noR4":        {Theta: 0.6, EnableR1: true, EnableR2: true, EnableR3: true, UseNeighbors: true},
		"NoNeighbors": {Theta: 0.6, EnableR1: true, EnableR2: true, EnableR3: true, EnableR4: true, UseNeighbors: false},
		"Full":        matching.DefaultConfig(),
	}
	var rows []Table4Row
	for _, name := range s.Names() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		for _, setting := range Table4Settings {
			mc := configs[setting]
			cfg := core.DefaultConfig()
			cfg.Workers = s.opts.Workers
			cfg.Rules = &mc
			out, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table4Row{name, setting, eval.Evaluate(out.Pairs(), d.GT)})
		}
	}
	return rows, nil
}

// FormatTable4 renders Table 4 rows grouped by setting, mirroring the
// paper's layout (one block per rule).
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %8s %8s %8s\n", "Setting", "Dataset", "Prec%", "Recall%", "F1%")
	for _, setting := range Table4Settings {
		for _, r := range rows {
			if r.Setting != setting {
				continue
			}
			fmt.Fprintf(&b, "%-12s %-18s %8.2f %8.2f %8.2f\n",
				r.Setting, r.Dataset, 100*r.Metrics.Precision, 100*r.Metrics.Recall, 100*r.Metrics.F1)
		}
		b.WriteString("\n")
	}
	return b.String()
}
