// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation (§VI-§VII), producing aligned text
// tables that EXPERIMENTS.md and cmd/experiments consume.
package bench

import (
	"fmt"
	"math"
	"strings"
)

// Table is one rendered experiment: a paper artefact id, a caption, a
// header row and data rows. The JSON form is what the serving layer's
// experiment jobs return.
type Table struct {
	ID     string     `json:"id"` // "fig6", "tableII", ...
	Title  string     `json:"title"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends an explanatory footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned monospaced text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", max(4, total-2)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// geomean returns the geometric mean of positive values (zeroes skipped).
func geomean(vals []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
