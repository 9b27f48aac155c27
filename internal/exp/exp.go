// Package exp contains one runner per table and figure of the paper's
// evaluation. Each runner returns a Table -- an ordered set of labelled
// rows -- that cmd/sfexp prints (sfexp -exp <name>, e.g. -exp vc for the
// Section IV-D table). The
// simulator-backed figures of Section V (Fig6, Fig8a, Fig8be) are defined
// as sweep specs in sweepspec.go; their runners execute those specs on
// the sweep pool and take a context, returning its error on cancellation.
// Benchmarks in the repository root wrap the structural runners.
package exp

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns. No line ends in blanks:
// the last column is not padded.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var line []byte
	writeRow := func(cells []string) {
		line = line[:0]
		for i, c := range cells {
			if i > 0 {
				line = append(line, "  "...)
			}
			line = fmt.Appendf(line, "%-*s", widths[i], c)
		}
		b.Write(bytes.TrimRight(line, " "))
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// SortRowsNumeric sorts rows by the numeric value of column col.
func (t *Table) SortRowsNumeric(col int) {
	sort.SliceStable(t.Rows, func(i, j int) bool {
		var a, b float64
		fmt.Sscanf(t.Rows[i][col], "%f", &a)
		fmt.Sscanf(t.Rows[j][col], "%f", &b)
		return a < b
	})
}
