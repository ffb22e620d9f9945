package sim

import (
	"fmt"
	"strings"
)

// Series is one line/bar group of a figure: a named sequence of values
// aligned with the figure's labels.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Figure is a reproduced table or figure: labeled columns, one row per
// series, plus free-form notes (calibration remarks, paper reference
// values). Its JSON tags are the report format: drstrange.Report
// carries this type as drstrange.Figure.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Labels []string `json:"labels,omitempty"`
	Series []Series `json:"series"`
	Notes  []string `json:"notes,omitempty"`
}

// Render formats the figure as an aligned text table.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	nameW := len("series")
	for _, s := range f.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	colW := make([]int, len(f.Labels))
	for i, l := range f.Labels {
		colW[i] = len(l)
		if colW[i] < 7 {
			colW[i] = 7
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW+2, "series")
	for i, l := range f.Labels {
		fmt.Fprintf(&b, " %*s", colW[i], l)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-*s", nameW+2, s.Name)
		for i, v := range s.Values {
			w := 7
			if i < len(colW) {
				w = colW[i]
			}
			fmt.Fprintf(&b, " %*.3f", w, v)
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// RenderAll renders the figures in order, one blank line after each —
// exactly the bytes the drivers conventionally print. The determinism
// tests compare this output across worker counts.
func RenderAll(figs []Figure) string {
	var b strings.Builder
	for i := range figs {
		b.WriteString(figs[i].Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// Headline returns a single representative number for benchmark
// reporting: the mean of the last series (conventionally the
// AVG/GMEAN-bearing one).
func (f *Figure) Headline() float64 {
	if len(f.Series) == 0 {
		return 0
	}
	last := f.Series[len(f.Series)-1]
	sum := 0.0
	for _, v := range last.Values {
		sum += v
	}
	if len(last.Values) == 0 {
		return 0
	}
	return sum / float64(len(last.Values))
}
