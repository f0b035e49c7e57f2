// Package stats provides the mean, text tables and bar charts the
// experiment harness and dcgsim print.
package stats

import (
	"fmt"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table is a simple fixed-column text table used by the experiment
// harnesses to print paper-style rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row formatting each value with %v (floats as %.1f).
func (t *Table) AddRowf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.1f", v)
		case float32:
			s[i] = fmt.Sprintf("%.1f", v)
		default:
			s[i] = fmt.Sprint(c)
		}
	}
	t.AddRow(s...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// BarRow is one bar of an ASCII bar chart.
type BarRow struct {
	Label string
	Value float64
	Note  string
}

// Bars renders rows as a horizontal ASCII bar chart scaled to width
// characters for the largest value — a terminal rendition of the paper's
// bar figures.
func Bars(title string, rows []BarRow, width int) string {
	if width <= 0 {
		width = 50
	}
	maxV := 0.0
	labelW := 0
	for _, r := range rows {
		if r.Value > maxV {
			maxV = r.Value
		}
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	for _, r := range rows {
		n := 0
		if maxV > 0 {
			n = int(r.Value/maxV*float64(width) + 0.5)
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s |%s%s %.1f", labelW, r.Label,
			strings.Repeat("#", n), strings.Repeat(" ", width-n), r.Value)
		if r.Note != "" {
			b.WriteString("  " + r.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
