package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// AsciiPlot renders a figure's series as a terminal scatter plot, so that
// `ctsan repro` output can be eyeballed against the paper's figures without
// external tooling. Each series is drawn with its own glyph; a legend maps
// glyphs to labels. logX/logY select logarithmic axes (Figs. 8 and 9 are
// log-log in the paper).
func AsciiPlot(w io.Writer, f *Figure, width, height int, logX, logY bool) {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	glyphs := "ox+*#@%&"
	tx := func(v float64) float64 {
		if logX {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if logY {
			return math.Log10(v)
		}
		return v
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	usable := false
	for _, s := range f.Series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if (logX && x <= 0) || (logY && y <= 0) || math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			usable = true
			minX, maxX = math.Min(minX, tx(x)), math.Max(maxX, tx(x))
			minY, maxY = math.Min(minY, ty(y)), math.Max(maxY, ty(y))
		}
	}
	if !usable {
		fmt.Fprintf(w, "(no plottable points for %s)\n", f.ID)
		return
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if (logX && x <= 0) || (logY && y <= 0) || math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			col := int((tx(x) - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((ty(y)-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = g
		}
	}
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	axis := func(v float64, log bool) float64 {
		if log {
			return math.Pow(10, v)
		}
		return v
	}
	for r, line := range grid {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%-10.3g", axis(maxY, logY))
		case height - 1:
			label = fmt.Sprintf("%-10.3g", axis(minY, logY))
		}
		fmt.Fprintf(w, "%s|%s|\n", label, string(line))
	}
	fmt.Fprintf(w, "%10s %-10.3g%*s\n", "", axis(minX, logX), width-9, fmt.Sprintf("%.3g", axis(maxX, logX)))
	for si, s := range f.Series {
		fmt.Fprintf(w, "    %c = %s\n", glyphs[si%len(glyphs)], s.Label)
	}
}
