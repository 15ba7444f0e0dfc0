// Package metrics renders experiment results as aligned text tables, CSV,
// markdown and simple ASCII series plots — the output layer of the benchmark
// harness that regenerates the paper's tables and figures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case float32:
			row[i] = formatFloat(float64(x))
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	if math.Abs(x) >= 0.01 || x == 0 {
		return fmt.Sprintf("%.3f", x)
	}
	return fmt.Sprintf("%.3e", x)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
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
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	total := len(widths)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("metrics: render failed: %v", err)
	}
	return b.String()
}

// RenderCSV writes the table as CSV (RFC-4180 quoting for cells containing
// commas, quotes, or newlines).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderMarkdown writes the table as a GitHub-flavored markdown table:
// the header row, a separator row, then the data rows, cells as they are.
// The title is not part of the table.
func (t *Table) RenderMarkdown(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	writeRow(t.headers)
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = "---"
	}
	writeRow(seps)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is a named sequence of y-values for ASCII plotting (one line in a
// figure).
type Series struct {
	Name   string
	Values []float64
}

// Plot renders series as a compact ASCII chart: one row per x index, one
// column block per series, each value shown with a proportional bar. It is
// deliberately simple — the harness's job is the numbers; the bars give
// shape at a glance.
func Plot(w io.Writer, title, xlabel string, series []Series) error {
	var b strings.Builder
	b.WriteString(title + "\n")
	if len(series) == 0 {
		_, err := io.WriteString(w, b.String())
		return err
	}
	maxLen := 0
	maxVal := 0.0
	for _, s := range series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
		for _, v := range s.Values {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	nameW := len(xlabel)
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	const barW = 30
	for si, s := range series {
		if si == 0 {
			fmt.Fprintf(&b, "%s\n", xlabel)
		}
		fmt.Fprintf(&b, "%s\n", pad(s.Name, nameW))
		for i, v := range s.Values {
			bar := 0
			if maxVal > 0 {
				bar = int(v / maxVal * barW)
			}
			fmt.Fprintf(&b, "  [%3d] %-*s %s\n", i, barW+1, strings.Repeat("#", bar), formatFloat(v))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
