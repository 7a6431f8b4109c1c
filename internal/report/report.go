// Package report renders experiment output: fixed-width ASCII tables for
// the terminal (the Table I / Table II reproductions) and CSV series
// files for the figure reproductions, one series per column so any
// plotting tool can regenerate the paper's plots.
package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned ASCII table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells, long rows
// are an error.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) > len(t.headers) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.headers))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
	return nil
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table to w. Column widths are measured in runes,
// not bytes, so multibyte cells (ν̃_k, α, § in the paper's headers) stay
// aligned, and the final cell of each line is not padded, so rendered
// tables carry no trailing spaces.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	if err != nil {
		return fmt.Errorf("report: render table: %w", err)
	}
	return nil
}

// String renders the table to a string, for logs and tests.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("report: %v", err)
	}
	return b.String()
}

// Float formats a float for table cells with sensible precision.
func Float(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// Int formats an int for table cells.
func Int(v int) string { return strconv.Itoa(v) }

// Int64 formats an int64 for table cells.
func Int64(v int64) string { return strconv.FormatInt(v, 10) }

// Series is a named set of (x, y) points — one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Validate checks that X and Y align.
func (s *Series) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("report: series without name")
	}
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("report: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
	}
	return nil
}

// WriteCSV writes one or more series in long form (series,x,y per line)
// so a figure's curves live in a single file.
func WriteCSV(w io.Writer, series []Series) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series to write")
	}
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for i := range series {
		s := &series[i]
		if err := s.Validate(); err != nil {
			return err
		}
		for j := range s.X {
			b.WriteString(s.Name)
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(s.X[j], 'g', -1, 64))
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(s.Y[j], 'g', -1, 64))
			b.WriteByte('\n')
		}
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("report: write csv: %w", err)
	}
	return nil
}

// SaveCSV writes the series to a file, creating parent directories.
func SaveCSV(path string, series []Series) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("report: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("report: close %s: %w", path, cerr)
		}
	}()
	return WriteCSV(f, series)
}

// SaveTable writes a rendered table to a file, creating parent
// directories.
func SaveTable(path string, t *Table) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("report: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("report: close %s: %w", path, cerr)
		}
	}()
	return t.Render(f)
}
