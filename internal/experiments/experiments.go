// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) plus the two catalog tables. Each experiment returns
// its table rendered as text, so the same code backs both
// cmd/benchtables and the root bench_test.go benchmarks.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"gemini/internal/parallel"
)

// Experiment identifies one table or figure.
type Experiment struct {
	ID    string // "table1", "fig9", "fig15a", …
	Title string
	Run   func() (string, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: GPU vs CPU memory of cloud GPU instances", Table1},
		{"table2", "Table 2: language model configurations", Table2},
		{"fig7", "Figure 7: iteration time of 100B models, no-checkpoint vs GEMINI", Fig7},
		{"fig8", "Figure 8: network idle time and checkpoint time, 100B models", Fig8},
		{"fig9", "Figure 9: probability of recovery from CPU memory", Fig9},
		{"fig10", "Figure 10: average wasted time vs replaced instances", Fig10},
		{"fig11", "Figure 11: checkpoint-time reduction over the baselines", Fig11},
		{"fig12", "Figure 12: checkpoint frequency", Fig12},
		{"fig13", "Figure 13: p3dn.24xlarge generalization (10B–40B models)", Fig13},
		{"fig14", "Figure 14: failure-recovery timeline", Fig14},
		{"fig15a", "Figure 15a: effective training-time ratio vs failure rate", Fig15a},
		{"fig15b", "Figure 15b: effective training-time ratio vs cluster size", Fig15b},
		{"fig16", "Figure 16: interleaving-scheme ablation (GPT-2 40B)", Fig16},
	}
}

// ByID returns the experiment (including ablations) with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range append(All(), Ablations()...) {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Result is the outcome of one experiment run.
type Result struct {
	ID     string
	Title  string
	Output string
	Err    error
}

// RunAll executes the experiments concurrently on up to workers
// goroutines (≤ 0 means GOMAXPROCS) and returns one Result per
// experiment, in input order regardless of completion order — the
// regenerate-everything run is bounded by the slowest experiment, not
// the sum. Every experiment builds its own jobs and tables, so runs are
// independent; a failure is recorded in its Result rather than aborting
// the sweep. Cancelling the context stops scheduling new experiments.
func RunAll(ctx context.Context, exps []Experiment, workers int) []Result {
	out := make([]Result, len(exps))
	parallel.ForEachErr(ctx, workers, len(exps), func(i int) error {
		text, err := exps[i].Run()
		out[i] = Result{
			ID:     exps[i].ID,
			Title:  exps[i].Title,
			Output: text,
			Err:    err,
		}
		return ctx.Err()
	})
	return out
}

// table is a tiny text-table builder.
type table struct {
	header []string
	rows   [][]string
}

// tableRowHint pre-sizes the row buffer: every experiment table in the
// repo lands under 16 rows (the largest is the instance catalog), so the
// builder never regrows mid-experiment.
const tableRowHint = 16

func newTable(header ...string) *table {
	return &table{header: header, rows: make([][]string, 0, tableRowHint)}
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...any) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	// One row is the padded cell widths plus separators; pre-size for
	// header + rule + rows so String renders with a single grow.
	lineWidth := 1
	for _, w := range widths {
		lineWidth += w + 2
	}
	b.Grow(lineWidth * (len(t.rows) + 2))
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
