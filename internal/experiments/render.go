package experiments

import (
	"fmt"
	"io"
	"strings"
)

// FormatTable1 renders Table 1 rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: outputs and approximation errors (n=6, f=1, d=2)\n")
	b.WriteString(fmt.Sprintf("%-8s %-18s %-24s %s\n", "filter", "fault", "x_out", "dist(x_H, x_out)"))
	for _, r := range rows {
		coords := make([]string, len(r.XOut))
		for i, v := range r.XOut {
			coords[i] = fmt.Sprintf("%.4f", v)
		}
		b.WriteString(fmt.Sprintf("%-8s %-18s (%s)%s %.3e\n",
			r.Filter, r.Fault, strings.Join(coords, ", "),
			strings.Repeat(" ", max(1, 22-2*len(coords)*7/2)), r.Dist))
	}
	return b.String()
}

// metricFormat is what differs between rendering a distance curve and an
// accuracy curve: the column name, the CSV cell verb, and the summary's cell
// verb, column width and scale (accuracy prints as a percentage).
type metricFormat struct {
	name, csv, cell string
	width           int
	scale           float64
}

func (fd FigureData) metricFormat() metricFormat {
	if fd.Accuracy {
		return metricFormat{name: "acc", csv: "%.4f", cell: " %9.1f%%", width: 10, scale: 100}
	}
	return metricFormat{name: "dist", csv: "%.6e", cell: " %14.4e", width: 14, scale: 1}
}

// WriteFigureCSV emits one figure panel as CSV: a header row then one row
// per iteration with a loss and a metric column per series.
func WriteFigureCSV(w io.Writer, fd FigureData) error {
	m := fd.metricFormat()
	header := []string{"t"}
	for _, s := range fd.Series {
		header = append(header, s.Name+"_loss", s.Name+"_"+m.name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	if len(fd.Series) == 0 {
		return nil
	}
	n := len(fd.Series[0].Loss)
	for t := 0; t < n; t++ {
		row := []string{fmt.Sprintf("%d", t)}
		for _, s := range fd.Series {
			row = append(row, fmt.Sprintf("%.6e", s.Loss[t]), fmt.Sprintf(m.csv, s.Metric[t]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// SummarizeFigure renders the head and tail of each series compactly: the
// "shape" a reader compares against the paper's plots without parsing the
// full CSV.
func SummarizeFigure(fd FigureData) string {
	m := fd.metricFormat()
	var b strings.Builder
	if fd.Fault != "" {
		fmt.Fprintf(&b, "fault = %s\n", fd.Fault)
	}
	fmt.Fprintf(&b, "%-12s %14s %14s %*s %*s\n", "series", "loss[0]", "loss[end]",
		m.width, m.name+"[0]", m.width, m.name+"[end]")
	for _, s := range fd.Series {
		if len(s.Loss) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %14.4e %14.4e"+m.cell+m.cell+"\n", s.Name, s.Loss[0], s.Loss[len(s.Loss)-1],
			m.scale*s.Metric[0], m.scale*s.Metric[len(s.Metric)-1])
	}
	return b.String()
}

// FormatAppendixJ renders the derived-constants report.
func FormatAppendixJ(rep *AppendixJReport) string {
	var b strings.Builder
	b.WriteString("Appendix J derived constants (all recomputed from the raw data)\n")
	fmt.Fprintf(&b, "  x_H        = (%.4f, %.4f)   paper: (1.0780, 0.9825)\n", rep.XH[0], rep.XH[1])
	fmt.Fprintf(&b, "  epsilon    = %.4f             paper: 0.0890\n", rep.Epsilon)
	fmt.Fprintf(&b, "  mu         = %.4f             paper: 2\n", rep.Mu)
	fmt.Fprintf(&b, "  gamma      = %.4f             paper: 0.712\n", rep.Gamma)
	fmt.Fprintf(&b, "  Theorem 4 applicable: %v (alpha <= 0 on this instance; Theorem 5 covers it)\n", rep.Theorem4Applicable)
	fmt.Fprintf(&b, "  Theorem 5: alpha = %.4f, D = %.4f, D*eps = %.4f\n", rep.Theorem5.Alpha, rep.Theorem5.D, rep.Theorem5ErrorBound)
	fmt.Fprintf(&b, "  lambda (measured) = %.4f, Theorem-6 threshold gamma/(mu sqrt d) = %.4f\n", rep.Lambda, rep.LambdaMax)
	fmt.Fprintf(&b, "  Exhaustive (Thm 2): x = (%.4f, %.4f), r_S = %.4f (<= eps), worst honest-subset dist = %.4f (<= 2 eps)\n",
		rep.ExhaustiveX[0], rep.ExhaustiveX[1], rep.ExhaustiveScore, rep.ExhaustiveResilience)
	return b.String()
}
