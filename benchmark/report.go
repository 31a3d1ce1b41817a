//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

func printMetric(w io.Writer, m metricDef, v value, extra string) {
	fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%-7d %s\n", m.Name, v.V, m.Unit, v.N, extra)
}

// printWorkload prints one workload's row: stated load, end-to-end
// metrics with bounds, then the per-layer metrics its own run yields.
func printWorkload(w io.Writer, r *result) {
	fmt.Fprintf(w, "\nworkload %s — %s\n", r.workload, workloadWhy[r.workload])
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, " end-to-end (tracing off; x = multiples of the twin's):\n")
	for _, m := range endToEnd {
		if v, ok := r.vals[m.Name]; ok {
			printMetric(w, m, v, fmt.Sprintf("%s is better, bound %.0f%%", m.Better, 100*m.Bound))
		}
	}
	fmt.Fprintf(w, " per-layer, from this run:\n")
	for _, m := range perLayer {
		v, ok := r.vals[m.Name]
		if !ok || !m.definedOn(r.workload) {
			continue
		}
		extra := "[" + m.Source + "] " + m.Layer
		if m.Name == "failed_share" {
			extra += fmt.Sprintf(": %d failed of %d attempted; must be 0", r.failed, r.attempted)
		}
		printMetric(w, m, v, extra)
	}
	if len(r.problems) == 0 {
		fmt.Fprintf(w, " audit: outputs correct\n")
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, " CORRECTNESS FAILURE: %s\n", p)
	}
}

// printTraced prints the traced run's per-layer metrics by module.
func printTraced(w io.Writer, s *set) {
	fmt.Fprintf(w, "\ntraced run (in-process stack, fleet_noop's shape, one agent) and layer ladder\n")
	for _, n := range s.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, m := range perLayer {
		if v, ok := s.Traced[m.Name]; ok {
			printMetric(w, m, v, "["+m.Source+"] "+m.Layer)
		}
	}
}

// summary is the JSON form of a benchmark invocation. Claim is last and
// always null: defining the benchmark claims no gain.
type summary struct {
	Sets  []setJSON `json:"sets"`
	Claim *string   `json:"claim"`
}

type setJSON struct {
	Seed      int64                   `json:"seed"`
	Workloads map[string]workloadJSON `json:"workloads,omitempty"`
	Traced    map[string]metricJSON   `json:"traced,omitempty"`
	Notes     []string                `json:"notes,omitempty"`
}

type workloadJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Problems  []string              `json:"problems,omitempty"`
	Notes     []string              `json:"notes,omitempty"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

func metricsJSON(vals values) map[string]metricJSON {
	out := map[string]metricJSON{}
	for name, v := range vals {
		out[name] = metricJSON{Value: v.V, Unit: unitOf(name), N: v.N}
	}
	return out
}

func summaryOf(sets []*set) summary {
	var sum summary
	for _, s := range sets {
		sj := setJSON{Seed: s.Seed, Workloads: map[string]workloadJSON{}, Notes: s.Notes}
		for name, r := range s.Workloads {
			sj.Workloads[name] = workloadJSON{
				Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
				Problems: r.problems, Notes: r.notes, Metrics: metricsJSON(r.vals),
			}
		}
		if s.Traced != nil {
			sj.Traced = metricsJSON(s.Traced)
		}
		sum.Sets = append(sum.Sets, sj)
	}
	return sum
}

func writeSummary(dir string, sets []*set) error {
	b, err := json.MarshalIndent(summaryOf(sets), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "summary.json"), append(b, '\n'), 0o644)
}

// repeat is the check that the same code measures the same. It runs the
// selected workloads n times on each of two seeds, seed and seed+1, the
// two taking turns (and swapping who goes first) so that a slow quarter
// of an hour falls on both alike. Per workload and end-to-end metric it
// prints each seed's median and quartiles, the relative spread of all the
// runs and the distance between the two medians next to the metric's
// bound. It exits non-zero when the two seeds disagree on a metric — their
// medians are further apart than its bound and than the ranges of the two
// seeds' own runs together — when any failed_share is not 0, or on a
// correctness failure. Medians further apart than the bound but not than
// the runs' own scatter are reported as unresolved: the run-to-run spread
// is then wider than the bound and only more rounds can tell. The traced run
// and the ladder are left out: their numbers have no bound.
func (e *env) repeat(o options, stdout io.Writer) (int, error) {
	if o.workload == wlTraced {
		return 0, fmt.Errorf("-repeat compares end-to-end metrics; the traced run has none")
	}
	var all []*set
	var bySeed [2][]*set
	for i := 0; i < o.repeat; i++ {
		for k := 0; k < 2; k++ {
			g := (i + k) % 2
			e.seed = o.seed + int64(g)
			fmt.Fprintf(stdout, "\n=== round %d of %d, seed %d ===\n", i+1, o.repeat, e.seed)
			s, err := e.runSet(o, false, stdout)
			if err != nil {
				e.keepOut = true
				return 0, err
			}
			all, bySeed[g] = append(all, s), append(bySeed[g], s)
		}
	}
	if err := writeSummary(e.out, all); err != nil {
		return 0, err
	}
	code := 0
	fmt.Fprintf(stdout, "\n=== %d runs per seed: median [q1 .. q3] of seed %d | of seed %d; spread = (q3-q1)/median over all runs ===\n", o.repeat, o.seed, o.seed+1)
	for _, wl := range workloadNames {
		if _, ok := all[0].Workloads[wl]; !ok {
			continue
		}
		fmt.Fprintf(stdout, "workload %s\n", wl)
		for _, s := range all {
			if len(s.Workloads[wl].problems) > 0 {
				code = 1
				fmt.Fprintf(stdout, "  CORRECTNESS FAILURE on seed %d\n", s.Seed)
			}
		}
		worst := 0.0
		for _, s := range all {
			worst = max(worst, s.Workloads[wl].vals["failed_share"].V)
		}
		if worst > 0 {
			code = 1
			fmt.Fprintf(stdout, "  %-24s max %.6f  FAILED: must be 0\n", "failed_share", worst)
		}
		for _, m := range endToEnd {
			var xs [2][]float64
			for g, sets := range bySeed {
				for _, s := range sets {
					if v, ok := s.Workloads[wl].vals[m.Name]; ok {
						xs[g] = append(xs[g], v.V)
					}
				}
			}
			pooled := append(append([]float64{}, xs[0]...), xs[1]...)
			if len(xs[0]) == 0 || len(xs[1]) == 0 {
				code = 1
				fmt.Fprintf(stdout, "  %-24s NOT MEASURED on every run\n", m.Name)
				continue
			}
			aq1, a, aq3, _ := relSpread(xs[0])
			bq1, b, bq3, _ := relSpread(xs[1])
			_, _, _, spread := relSpread(pooled)
			apart := math.Abs(a-b) / min(a, b)
			// The seeds disagree when their medians are further apart than
			// the runs of each are among themselves; otherwise the runs
			// are too scattered to tell, and more rounds are the answer,
			// not a verdict.
			scatter := slices.Max(xs[0]) - slices.Min(xs[0]) + slices.Max(xs[1]) - slices.Min(xs[1])
			resolved := math.Abs(a-b) > scatter
			verdict := "ok"
			switch {
			case apart > m.Bound && resolved:
				verdict, code = "DISAGREE: the two medians are further apart than the bound", 1
			case apart > m.Bound:
				verdict = "UNRESOLVED: the medians are further apart than the bound, but no further than each seed's own runs; run more rounds"
			case spread > m.Bound/3:
				verdict = "ok, but the spread is above a third of the bound"
			}
			fmt.Fprintf(stdout, "  %-22s %11.4f [%11.4f .. %11.4f] | %11.4f [%11.4f .. %11.4f] %-5s spread %5.1f%%  apart %5.1f%%  bound %2.0f%%  %s\n",
				m.Name, a, aq1, aq3, b, bq1, bq3, m.Unit, 100*spread, 100*apart, 100*m.Bound, verdict)
		}
	}
	return code, nil
}
