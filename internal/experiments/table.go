package experiments

import (
	"fmt"
	"slices"
	"strings"

	"flexmap/internal/metrics"
)

// Table is what every step of the evaluation produces: a title, panels
// of named columns over rows of typed cells, and caption and footnote
// lines. Render prints it; Lookup reads a cell by panel, row and column
// name, so a check never parses printed text.
type Table struct {
	// Title, when set, is the first line.
	Title string
	// Caption lines follow the title; Notes follow the last panel.
	Caption, Notes []Line
	// Panels print in order, a blank line between consecutive ones.
	Panels []Panel
}

// Panel is one grid of a Table with the lines around it. A panel
// without columns prints its lines only.
type Panel struct {
	// Name addresses the panel in Lookup: a cluster, a slow-node
	// fraction, a scenario. A table's only panel may leave it empty.
	Name    string
	Caption []Line
	Columns []string
	// Rows are the grid's rows, one cell per column. A row's name is the
	// text of its leading label cells (those without a Format) joined
	// by "/": "WC", or "4:1/biased" for a fabric × placement row.
	Rows  [][]Cell
	Notes []Line
}

// Line is a caption or footnote line: its cells printed back to back.
type Line []Cell

// Cell is one entry of a Table. A typed cell holds a value and the fmt
// verb it prints with; a label has only Text. Text set on a typed cell
// prints in place of the value: a "-" or "failed" over a value a check
// can still read.
type Cell struct {
	Value  float64
	Format string
	Text   string
	// Name addresses a typed cell of a caption or note line, which has no
	// row or column.
	Name string
}

// num is a typed cell; label a text cell; named a typed cell of a
// caption or note line.
func num(format string, v float64) Cell { return Cell{Value: v, Format: format} }
func label(s string) Cell               { return Cell{Text: s} }
func named(name, format string, v float64) Cell {
	return Cell{Value: v, Format: format, Name: name}
}

// String is the cell as printed.
func (c Cell) String() string {
	if c.Text != "" || c.Format == "" {
		return c.Text
	}
	return fmt.Sprintf(c.Format, c.Value)
}

// Render prints the table as paperfigs shows it.
func (t *Table) Render() string {
	var b strings.Builder
	lines := func(ls []Line) {
		for _, l := range ls {
			for _, c := range l {
				b.WriteString(c.String())
			}
			b.WriteByte('\n')
		}
	}
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	lines(t.Caption)
	for i, p := range t.Panels {
		if i > 0 {
			b.WriteByte('\n')
		}
		lines(p.Caption)
		if len(p.Columns) > 0 {
			rows := make([][]string, len(p.Rows))
			for r, row := range p.Rows {
				rows[r] = make([]string, len(row))
				for j, c := range row {
					rows[r][j] = c.String()
				}
			}
			b.WriteString(metrics.Table(p.Columns, rows))
		}
		lines(p.Notes)
	}
	lines(t.Notes)
	return b.String()
}

// Lookup returns the cell in the named panel's row and column or, with
// row "", the panel's caption or note cell of that Name. ok is false
// when a name matches nothing.
func (t *Table) Lookup(panel, row, column string) (Cell, bool) {
	for _, p := range t.Panels {
		if p.Name != panel {
			continue
		}
		if row == "" {
			for _, l := range slices.Concat(p.Caption, p.Notes) {
				for _, c := range l {
					if c.Name != "" && c.Name == column {
						return c, true
					}
				}
			}
			return Cell{}, false
		}
		col := slices.Index(p.Columns, column)
		for _, r := range p.Rows {
			if col >= 0 && rowName(r) == row {
				return r[col], true
			}
		}
		return Cell{}, false
	}
	return Cell{}, false
}

// rowName joins the text of a row's leading label cells.
func rowName(r []Cell) string {
	var keys []string
	for _, c := range r {
		if c.Format != "" {
			break
		}
		keys = append(keys, c.Text)
	}
	return strings.Join(keys, "/")
}
