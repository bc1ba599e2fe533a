// Package bench renders the paper's tables and figures from the sim
// layer as aligned text reports: one runner per table/figure of the
// evaluation section, each printing the same rows/series the paper
// reports plus the paper's reference numbers where the text states
// them.
package bench

import (
	"fmt"
	"strings"
)

// Report is one rendered table or figure.
type Report struct {
	// Title identifies the table/figure ("Figure 16: ...").
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data cells, already formatted.
	Rows [][]string
	// Notes carry paper-reference values and caveats.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// RenderMarkdown produces a GitHub-flavored markdown table, for
// pasting reproduction results into issues and docs.
func (r *Report) RenderMarkdown() string {
	var b strings.Builder
	b.WriteString("### ")
	b.WriteString(r.Title)
	b.WriteString("\n\n")
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		b.WriteString("\n> ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// Render produces the aligned text form.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteString("\n")
	b.WriteString(strings.Repeat("=", len(r.Title)))
	b.WriteString("\n")

	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}
