// Package analysis implements Chronos Control's result analysis: it
// extracts data series from job results according to a system's diagram
// specifications and renders them as bar, line and pie diagrams
// (requirement vi), both as SVG for the web UI and as ASCII for
// terminals and the bench harness. The built-in diagram set is extensible
// through a registry (paper §2.2: "the built-in set of types can be
// extended").
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"chronos/internal/core"
	"chronos/internal/params"
)

// ResultRow is one finished job flattened for analysis: its parameter
// assignment plus the numeric metrics of its result JSON.
type ResultRow struct {
	Params params.Assignment
	// Values maps metric keys to numbers; nested result objects flatten
	// with dotted keys (engineStats.cacheHits).
	Values map[string]float64
}

// RowFromResult builds a ResultRow from a job and its result JSON.
func RowFromResult(job *core.Job, resultJSON []byte) (ResultRow, error) {
	var doc map[string]any
	if err := json.Unmarshal(resultJSON, &doc); err != nil {
		return ResultRow{}, fmt.Errorf("analysis: result of %s: %w", job.ID, err)
	}
	row := ResultRow{Params: job.Params, Values: map[string]float64{}}
	flattenNumbers("", doc, row.Values)
	return row, nil
}

// flattenNumbers walks a decoded JSON document collecting numeric leaves.
func flattenNumbers(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case bool:
		if x {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	case map[string]any:
		for k, e := range x {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flattenNumbers(key, e, out)
		}
	case []any:
		for i, e := range x {
			flattenNumbers(prefix+"["+strconv.Itoa(i)+"]", e, out)
		}
	}
}

// Point is one (x, y) pair of a series. X keeps the original label;
// XNum carries the numeric interpretation when the x parameter is
// numeric, enabling proper line-chart spacing.
type Point struct {
	X    string  `json:"x"`
	XNum float64 `json:"xNum"`
	Y    float64 `json:"y"`
}

// Series is a named sequence of points (one line, one bar group member,
// or one pie slice set).
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Chart is the renderer-independent diagram model.
type Chart struct {
	Spec   core.DiagramSpec `json:"spec"`
	Series []Series         `json:"series"`
}

// BuildChart groups rows into series according to the spec: one series
// per SeriesParam value, x from XParam, y from the metric. Rows missing
// the metric are skipped. For pie charts (no XParam) each SeriesParam
// value contributes one slice; without SeriesParam the single series is
// keyed by parameter encoding.
func BuildChart(spec core.DiagramSpec, rows []ResultRow) (*Chart, error) {
	if spec.Metric == "" {
		return nil, fmt.Errorf("analysis: diagram %q without metric", spec.Title)
	}
	grouped := map[string][]Point{}
	for _, row := range rows {
		y, ok := row.Values[spec.Metric]
		if !ok {
			continue
		}
		seriesName := "all"
		if spec.SeriesParam != "" {
			if v, ok := row.Params[spec.SeriesParam]; ok {
				seriesName = v.String()
			}
		}
		var x string
		var xNum float64
		if spec.XParam != "" {
			if v, ok := row.Params[spec.XParam]; ok {
				x = v.String()
				if f, ok := v.AsFloat(); ok {
					xNum = f
				}
			}
		} else {
			x = seriesName
		}
		grouped[seriesName] = append(grouped[seriesName], Point{X: x, XNum: xNum, Y: y})
	}
	chart := &Chart{Spec: spec}
	names := make([]string, 0, len(grouped))
	for n := range grouped {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pts := grouped[n]
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].XNum != pts[j].XNum {
				return pts[i].XNum < pts[j].XNum
			}
			return pts[i].X < pts[j].X
		})
		// Average duplicate x values (several jobs with identical params,
		// e.g. repeated evaluations of one experiment), each with equal
		// weight.
		merged := make([]Point, 0, len(pts))
		for i := 0; i < len(pts); {
			p, j := pts[i], i+1
			for ; j < len(pts) && pts[j].X == p.X; j++ {
				p.Y += pts[j].Y
			}
			p.Y /= float64(j - i)
			merged = append(merged, p)
			i = j
		}
		chart.Series = append(chart.Series, Series{Name: n, Points: merged})
	}
	return chart, nil
}

// XLabels returns the union of x labels across series in draw order.
func (c *Chart) XLabels() []string {
	seen := map[string]bool{}
	type lab struct {
		x    string
		xNum float64
	}
	var labs []lab
	for _, s := range c.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				labs = append(labs, lab{p.X, p.XNum})
			}
		}
	}
	sort.Slice(labs, func(i, j int) bool {
		if labs[i].xNum != labs[j].xNum {
			return labs[i].xNum < labs[j].xNum
		}
		return labs[i].x < labs[j].x
	})
	out := make([]string, len(labs))
	for i, l := range labs {
		out[i] = l.x
	}
	return out
}

// ValueAt returns series s's y value at x label, with ok reporting
// presence.
func (s *Series) ValueAt(x string) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// MaxY returns the maximum y across all series (0 for empty charts).
func (c *Chart) MaxY() float64 {
	max := 0.0
	for _, s := range c.Series {
		for _, p := range s.Points {
			if p.Y > max {
				max = p.Y
			}
		}
	}
	return max
}

// TotalY sums all y values (pie denominators).
func (c *Chart) TotalY() float64 {
	sum := 0.0
	for _, s := range c.Series {
		for _, p := range s.Points {
			sum += p.Y
		}
	}
	return sum
}
