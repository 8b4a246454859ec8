package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pacon/internal/obs"
)

// Figure is the result every experiment returns: rows of named metrics,
// each row identified by its parameters, plus derived headline notes
// ("Pacon/BeeGFS = 84x ..."). The text table and CSV show the Series
// columns; the JSON report (see JSON) carries every metric.
type Figure struct {
	ID     string // e.g. "fig7-create"
	Title  string
	YLabel string
	Series []string // table/CSV column order: keys of Point.Metrics
	Points []Point
	Notes  []string
}

// Point is one row: the parameters that identify it, every number
// measured there, and — for runs with an observability sink attached —
// the per-stage wall-clock latency quantiles (see measured).
type Point struct {
	Params  map[string]string        `json:"params"`
	Metrics map[string]float64       `json:"metrics"`
	Stages  map[string]obs.Quantiles `json:"stages,omitempty"`
}

// AddPoint appends a row.
func (f *Figure) AddPoint(params map[string]string, metrics map[string]float64) {
	f.Points = append(f.Points, Point{Params: params, Metrics: metrics})
}

// measured builds a point from a run's metrics and the stage quantiles
// of the sink that observed it.
func measured(metrics map[string]float64, o *obs.Obs) Point {
	return Point{Metrics: metrics, Stages: o.HistQuantiles()}
}

// Note records a derived observation.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Value returns series s at row i (0 when absent).
func (f *Figure) Value(i int, s string) float64 {
	if i < 0 || i >= len(f.Points) {
		return 0
	}
	return f.Points[i].Metrics[s]
}

// Last returns series s at the final row.
func (f *Figure) Last(s string) float64 { return f.Value(len(f.Points)-1, s) }

// paramKeys returns the parameter names in table order (sorted); a
// paper figure has exactly one, its x axis.
func (f *Figure) paramKeys() []string {
	if len(f.Points) == 0 {
		return nil
	}
	keys := make([]string, 0, len(f.Points[0].Params))
	for k := range f.Points[0].Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// label renders a point's parameters in key order, "/"-joined.
func (p Point) label(keys []string) string {
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = p.Params[k]
	}
	return strings.Join(vals, "/")
}

// String renders an aligned text table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "   (y = %s)\n", f.YLabel)

	keys := f.paramKeys()
	headers := append([]string{strings.Join(keys, "/")}, f.Series...)
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		row := []string{p.label(keys)}
		for _, s := range f.Series {
			row = append(row, formatY(p.Metrics[s]))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "  %*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values.
func (f *Figure) CSV() string {
	var b strings.Builder
	keys := f.paramKeys()
	b.WriteString(strings.Join(keys, "/"))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(s)
	}
	b.WriteByte('\n')
	for _, p := range f.Points {
		b.WriteString(p.label(keys))
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%g", p.Metrics[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatY(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// JSON renders one experiment's figures as its report:
// {experiment, config, points: [{params, metrics, stages}], notes}.
// Every metric is written, zeros included. When the experiment emits
// several figures, each point's params gain a "figure" key naming the
// figure it belongs to, so params stay unique within the report.
func JSON(experiment string, cfg Config, figs []*Figure) ([]byte, error) {
	doc := struct {
		Experiment string   `json:"experiment"`
		Config     Config   `json:"config"`
		Points     []Point  `json:"points"`
		Notes      []string `json:"notes"`
	}{Experiment: experiment, Config: cfg, Points: []Point{}, Notes: []string{}}
	for _, f := range figs {
		for _, p := range f.Points {
			if len(figs) > 1 {
				params := map[string]string{"figure": f.ID}
				for k, v := range p.Params {
					params[k] = v
				}
				p.Params = params
			}
			doc.Points = append(doc.Points, p)
		}
		for _, n := range f.Notes {
			if len(figs) > 1 {
				n = f.ID + ": " + n
			}
			doc.Notes = append(doc.Notes, n)
		}
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Registry maps experiment IDs to their runners, so cmd/paconbench can
// list and select them.
type Runner func(Config) ([]*Figure, error)

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// Run executes one registered experiment. A runner that fails a gate
// (the audit) returns its figures together with the error, so the
// failing run's evidence can still be rendered.
func Run(id string, cfg Config) ([]*Figure, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return r(cfg)
}

// IDs lists registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
