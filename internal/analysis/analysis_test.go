package analysis

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"chronos/internal/core"
	"chronos/internal/params"
)

// demoRows builds rows like the MongoDB demo produces: engine x threads
// with throughput values.
func demoRows() []ResultRow {
	rows := []ResultRow{}
	for _, engine := range []string{"wiredtiger", "mmapv1"} {
		for i, threads := range []int64{1, 2, 4, 8} {
			y := float64(1000 * (i + 1))
			if engine == "mmapv1" {
				y = 1200 // flat: the collection lock ceiling
			}
			rows = append(rows, ResultRow{
				Params: params.Assignment{
					"engine":  params.String_(engine),
					"threads": params.Int(threads),
				},
				Values: map[string]float64{"throughput": y},
			})
		}
	}
	return rows
}

func lineSpec() core.DiagramSpec {
	return core.DiagramSpec{Type: "line", Title: "Throughput", Metric: "throughput",
		XParam: "threads", SeriesParam: "engine"}
}

func TestRowFromResultFlattens(t *testing.T) {
	job := &core.Job{ID: "job-1", Params: params.Assignment{"threads": params.Int(4)}}
	res, _ := json.Marshal(map[string]any{
		"throughput": 123.5,
		"ok":         true,
		"engineStats": map[string]any{
			"cacheHits": 42,
			"nested":    map[string]any{"deep": 7},
		},
		"list": []any{1.5, 2.5},
		"name": "ignored-string",
	})
	row, err := RowFromResult(job, res)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"throughput":              123.5,
		"ok":                      1,
		"engineStats.cacheHits":   42,
		"engineStats.nested.deep": 7,
		"list[0]":                 1.5,
		"list[1]":                 2.5,
	}
	for k, want := range checks {
		if got := row.Values[k]; got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
	if _, ok := row.Values["name"]; ok {
		t.Error("string leaked into numeric values")
	}
	if _, err := RowFromResult(job, []byte("{broken")); err == nil {
		t.Error("invalid JSON accepted")
	}
}

func TestBuildChartGroupsAndSorts(t *testing.T) {
	chart, err := BuildChart(lineSpec(), demoRows())
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 2 {
		t.Fatalf("series = %d", len(chart.Series))
	}
	// Sorted by name: mmapv1 then wiredtiger.
	if chart.Series[0].Name != "mmapv1" || chart.Series[1].Name != "wiredtiger" {
		t.Fatalf("series order: %s, %s", chart.Series[0].Name, chart.Series[1].Name)
	}
	// X labels numerically ordered.
	labels := chart.XLabels()
	want := []string{"1", "2", "4", "8"}
	if strings.Join(labels, ",") != strings.Join(want, ",") {
		t.Fatalf("labels = %v", labels)
	}
	// Points sorted by numeric x within each series.
	wt := chart.Series[1]
	if wt.Points[0].Y != 1000 || wt.Points[3].Y != 4000 {
		t.Fatalf("wiredtiger points = %v", wt.Points)
	}
	if chart.MaxY() != 4000 {
		t.Fatalf("MaxY = %v", chart.MaxY())
	}
}

// TestBuildChartAveragesDuplicates: jobs with identical parameters chart
// as the plain mean of their values, every duplicate weighted equally.
func TestBuildChartAveragesDuplicates(t *testing.T) {
	spec := core.DiagramSpec{Type: "line", Title: "t", Metric: "m", XParam: "threads"}
	for _, tc := range []struct {
		ys   []float64
		want float64
	}{
		{[]float64{10, 20}, 15},
		{[]float64{10, 20, 30}, 20},     // a running pairwise mean reads 22.5
		{[]float64{10, 20, 30, 40}, 25}, // and 31.25
	} {
		var rows []ResultRow
		for _, y := range tc.ys {
			rows = append(rows, ResultRow{Params: params.Assignment{"threads": params.Int(1)}, Values: map[string]float64{"m": y}})
		}
		chart, err := BuildChart(spec, rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(chart.Series) != 1 || len(chart.Series[0].Points) != 1 {
			t.Fatalf("%v: chart = %+v", tc.ys, chart)
		}
		if got := chart.Series[0].Points[0].Y; got != tc.want {
			t.Errorf("%v: averaged y = %v, want %v", tc.ys, got, tc.want)
		}
	}
}

func TestBuildChartSkipsRowsWithoutMetric(t *testing.T) {
	rows := append(demoRows(), ResultRow{
		Params: params.Assignment{"engine": params.String_("wiredtiger"), "threads": params.Int(16)},
		Values: map[string]float64{"unrelated": 1},
	})
	chart, err := BuildChart(lineSpec(), rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range chart.Series {
		for _, p := range s.Points {
			if p.X == "16" {
				t.Fatal("metric-less row produced a point")
			}
		}
	}
	if _, err := BuildChart(core.DiagramSpec{Type: "line"}, rows); err == nil {
		t.Fatal("spec without metric accepted")
	}
}

func TestRegistry(t *testing.T) {
	types := Types()
	joined := strings.Join(types, ",")
	for _, want := range []string{"bar", "line", "pie"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing built-in %q in %v", want, types)
		}
	}
	if _, err := Lookup("heatmap"); err == nil {
		t.Fatal("unknown type found")
	}
	// Extensions can register custom diagram types.
	Register(customRenderer{})
	if _, err := Lookup("custom-test"); err != nil {
		t.Fatal(err)
	}
}

type customRenderer struct{}

func (customRenderer) Type() string                              { return "custom-test" }
func (customRenderer) ASCII(c *Chart, width int) (string, error) { return "custom", nil }
func (customRenderer) SVG(c *Chart, w, h int) (string, error)    { return "<svg/>", nil }

func TestASCIIRenderers(t *testing.T) {
	chart, _ := BuildChart(lineSpec(), demoRows())
	out, err := RenderASCII(chart, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Throughput", "wiredtiger", "mmapv1", "1", "8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("line ascii missing %q:\n%s", want, out)
		}
	}
	barSpec := lineSpec()
	barSpec.Type = "bar"
	chart, _ = BuildChart(barSpec, demoRows())
	out, err = RenderASCII(chart, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "█") {
		t.Fatalf("bar ascii has no bars:\n%s", out)
	}
	pieSpec := core.DiagramSpec{Type: "pie", Title: "Mix", Metric: "throughput", SeriesParam: "engine"}
	chart, _ = BuildChart(pieSpec, demoRows())
	out, err = RenderASCII(chart, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "%") {
		t.Fatalf("pie ascii has no percentages:\n%s", out)
	}
}

func TestASCIIEmptyChart(t *testing.T) {
	for _, typ := range []string{"line", "bar", "pie"} {
		chart := &Chart{Spec: core.DiagramSpec{Type: typ, Title: "empty", Metric: "m"}}
		out, err := RenderASCII(chart, 80)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "no data") {
			t.Fatalf("%s: empty chart output %q", typ, out)
		}
	}
}

func TestSVGRenderers(t *testing.T) {
	chart, _ := BuildChart(lineSpec(), demoRows())
	svg, err := RenderSVG(chart, 640, 360)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "polyline", "wiredtiger", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("line svg missing %q", want)
		}
	}
	barSpec := lineSpec()
	barSpec.Type = "bar"
	chart, _ = BuildChart(barSpec, demoRows())
	svg, _ = RenderSVG(chart, 640, 360)
	if !strings.Contains(svg, "<rect") {
		t.Fatal("bar svg has no rects")
	}
	pieSpec := core.DiagramSpec{Type: "pie", Title: "Mix", Metric: "throughput", SeriesParam: "engine"}
	chart, _ = BuildChart(pieSpec, demoRows())
	svg, _ = RenderSVG(chart, 480, 360)
	if !strings.Contains(svg, "path") && !strings.Contains(svg, "circle") {
		t.Fatal("pie svg has no slices")
	}
	// Single-slice pie degenerates to a full circle.
	one := []ResultRow{{Params: params.Assignment{"engine": params.String_("only")},
		Values: map[string]float64{"throughput": 5}}}
	chart, _ = BuildChart(pieSpec, one)
	svg, err = RenderSVG(chart, 480, 360)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<circle") {
		t.Fatal("full pie should render a circle")
	}
	// SVG output must escape hostile titles.
	chart.Spec.Title = `<script>alert(1)</script>`
	svg, _ = RenderSVG(chart, 480, 360)
	if strings.Contains(svg, "<script>") {
		t.Fatal("title not escaped")
	}
}

// TestSVGWellFormedProperty: rendered SVG has balanced tags for random
// chart data.
func TestSVGWellFormedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := []ResultRow{}
		for i := 0; i < 1+r.Intn(10); i++ {
			rows = append(rows, ResultRow{
				Params: params.Assignment{
					"s": params.String_(string(rune('a' + r.Intn(3)))),
					"x": params.Int(int64(r.Intn(5))),
				},
				Values: map[string]float64{"m": r.Float64() * 1000},
			})
		}
		for _, typ := range []string{"line", "bar", "pie"} {
			spec := core.DiagramSpec{Type: typ, Title: "t", Metric: "m", XParam: "x", SeriesParam: "s"}
			chart, err := BuildChart(spec, rows)
			if err != nil {
				return false
			}
			svg, err := RenderSVG(chart, 320, 240)
			if err != nil {
				return false
			}
			if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
				return false
			}
			if strings.Count(svg, "<svg") != strings.Count(svg, "</svg>") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatY(t *testing.T) {
	cases := map[float64]string{
		5:             "5",
		1234.56:       "1234.56",
		15000:         "15.0k",
		2_500_000:     "2.50M",
		3_000_000_000: "3.00G",
	}
	for v, want := range cases {
		if got := formatY(v); got != want {
			t.Errorf("formatY(%v) = %q, want %q", v, got, want)
		}
	}
}
