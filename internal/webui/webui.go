// Package webui implements Chronos Control's web user interface
// (requirement i: "an easy to use UI for defining new experiments, for
// scheduling their execution, for monitoring their progress, and for
// analyzing their results"). It is a server-rendered html/template
// application over the core service — the Go counterpart of the original
// PHP/Bootstrap frontend.
package webui

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"

	"chronos/internal/analysis"
	"chronos/internal/auth"
	"chronos/internal/core"
)

// UI serves the HTML pages.
type UI struct {
	// Auth, when non-nil, closes the UI behind the sessions the REST API
	// uses (see session.go): viewer to look, member to act. Nil serves
	// every page to everyone, like the auth-less REST API.
	Auth *auth.Authenticator

	svc *core.Service
	tpl *template.Template
	mux *http.ServeMux
}

// New builds the UI over a service.
func New(svc *core.Service) (*UI, error) {
	tpl, err := template.New("webui").Parse(pageTemplates)
	if err != nil {
		return nil, fmt.Errorf("webui: parse templates: %w", err)
	}
	ui := &UI{svc: svc, tpl: tpl, mux: http.NewServeMux()}
	for pattern, h := range ui.routes() {
		ui.mux.HandleFunc(pattern, h)
	}
	return ui, nil
}

// Handler returns the page handler; mount it beside the REST API.
func (u *UI) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if u.Auth == nil || u.admit(w, r) {
			u.mux.ServeHTTP(w, r)
		}
	})
}

// routes lists the pages by mux pattern.
func (u *UI) routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"GET /{$}":                           u.dashboard,
		"GET /status":                        u.status,
		"GET /projects":                      u.projects,
		"GET /projects/{id}":                 u.project,
		"GET /systems":                       u.systems,
		"GET /systems/{id}":                  u.system,
		"GET /deployments":                   u.deployments,
		"GET /projects/{id}/experiments/new": u.newExperiment,
		"POST /projects/{id}/experiments":    u.createExperiment,
		"GET /experiments/{id}":              u.experiment,
		"POST /experiments/{id}/run":         u.runExperiment,
		"GET /evaluations/{id}":              u.evaluation,
		"GET /evaluations/{id}/results":      u.results,
		"GET /jobs/{id}":                     u.job,
		"POST /jobs/{id}/abort":              u.abortJob,
		"POST /jobs/{id}/reschedule":         u.rescheduleJob,
	}
}

// page is the template context.
type page struct {
	Title string
	Data  any
	// SignedIn puts the sign-out button in the navigation bar: with
	// session auth on, every page but the login form sits behind admit.
	SignedIn bool
}

// render executes a named page template.
func (u *UI) render(w http.ResponseWriter, name, title string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	p := page{Title: title, Data: data, SignedIn: u.Auth != nil && name != "login"}
	if err := u.tpl.ExecuteTemplate(w, name, p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// httpErr maps service errors to status pages.
func httpErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, core.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, core.ErrInvalidTransition), errors.Is(err, core.ErrArchived):
		status = http.StatusConflict
	}
	http.Error(w, err.Error(), status)
}

func (u *UI) dashboard(w http.ResponseWriter, r *http.Request) {
	projects, err := u.svc.ListProjects()
	if err != nil {
		httpErr(w, err)
		return
	}
	systems, err := u.svc.ListSystems()
	if err != nil {
		httpErr(w, err)
		return
	}
	deployments, err := u.svc.ListDeployments("")
	if err != nil {
		httpErr(w, err)
		return
	}
	u.render(w, "dashboard", "Dashboard", struct {
		Projects, Systems, Deployments int
	}{len(projects), len(systems), len(deployments)})
}

// status renders the live server-status page. The page itself is
// static: a script polls GET /metrics (same origin, so the ship gate
// applies as it would to any scraper) and draws sparklines client-side;
// the server renders no metric values into the HTML.
func (u *UI) status(w http.ResponseWriter, r *http.Request) {
	u.render(w, "serverstatus", "Server status", nil)
}

func (u *UI) projects(w http.ResponseWriter, r *http.Request) {
	ps, err := u.svc.ListProjects()
	if err != nil {
		httpErr(w, err)
		return
	}
	u.render(w, "projects", "Projects", ps)
}

func (u *UI) project(w http.ResponseWriter, r *http.Request) {
	p, err := u.svc.GetProject(r.PathValue("id"))
	if err != nil {
		httpErr(w, err)
		return
	}
	exps, err := u.svc.ListExperiments(p.ID)
	if err != nil {
		httpErr(w, err)
		return
	}
	u.render(w, "project", "Project "+p.Name, struct {
		Project     *core.Project
		Experiments []*core.Experiment
	}{p, exps})
}

func (u *UI) systems(w http.ResponseWriter, r *http.Request) {
	out, err := u.svc.ListSystems()
	if err != nil {
		httpErr(w, err)
		return
	}
	u.render(w, "systems", "Systems", out)
}

func (u *UI) system(w http.ResponseWriter, r *http.Request) {
	sys, err := u.svc.GetSystem(r.PathValue("id"))
	if err != nil {
		httpErr(w, err)
		return
	}
	deps, err := u.svc.ListDeployments(sys.ID)
	if err != nil {
		httpErr(w, err)
		return
	}
	u.render(w, "system", "System "+sys.Name, struct {
		System      *core.System
		Deployments []*core.Deployment
	}{sys, deps})
}

func (u *UI) deployments(w http.ResponseWriter, r *http.Request) {
	deps, err := u.svc.ListDeployments("")
	if err != nil {
		httpErr(w, err)
		return
	}
	u.render(w, "deployments", "Deployments", deps)
}

func (u *UI) experiment(w http.ResponseWriter, r *http.Request) {
	exp, err := u.svc.GetExperiment(r.PathValue("id"))
	if err != nil {
		httpErr(w, err)
		return
	}
	evs, err := u.svc.ListEvaluations(exp.ID)
	if err != nil {
		httpErr(w, err)
		return
	}
	u.render(w, "experiment", "Experiment "+exp.Name, struct {
		Experiment  *core.Experiment
		Evaluations []*core.Evaluation
	}{exp, evs})
}

func (u *UI) runExperiment(w http.ResponseWriter, r *http.Request) {
	ev, _, err := u.svc.CreateEvaluation(r.PathValue("id"))
	if err != nil {
		httpErr(w, err)
		return
	}
	http.Redirect(w, r, "/evaluations/"+ev.ID, http.StatusSeeOther)
}

func (u *UI) evaluation(w http.ResponseWriter, r *http.Request) {
	ev, err := u.svc.GetEvaluation(r.PathValue("id"))
	if err != nil {
		httpErr(w, err)
		return
	}
	jobs, err := u.svc.ListJobs(ev.ID)
	if err != nil {
		httpErr(w, err)
		return
	}
	st, err := u.svc.EvaluationStatusOf(ev.ID)
	if err != nil {
		httpErr(w, err)
		return
	}
	u.render(w, "evaluation", "Evaluation "+ev.ID, struct {
		Evaluation *core.Evaluation
		Jobs       []*core.Job
		Status     core.EvaluationStatus
	}{ev, jobs, st})
}

func (u *UI) job(w http.ResponseWriter, r *http.Request) {
	j, err := u.svc.GetJob(r.PathValue("id"))
	if err != nil {
		httpErr(w, err)
		return
	}
	timeline, err := u.svc.JobTimeline(j.ID)
	if err != nil {
		httpErr(w, err)
		return
	}
	logs, err := u.svc.JobLogs(j.ID)
	if err != nil {
		httpErr(w, err)
		return
	}
	var log strings.Builder
	for _, c := range logs {
		log.WriteString(c.Text)
	}
	// Dynamic-workload jobs carry per-phase rows; unfinished or static
	// jobs simply have none.
	phases, err := u.svc.JobPhaseResults(j.ID)
	if err != nil {
		phases = nil
	}
	u.render(w, "job", "Job "+j.ID, struct {
		Job           *core.Job
		Timeline      []*core.Event
		Log           string
		Phases        []core.PhaseResult
		CanAbort      bool
		CanReschedule bool
	}{
		Job: j, Timeline: timeline, Log: log.String(), Phases: phases,
		CanAbort:      j.Status == core.StatusScheduled || j.Status == core.StatusRunning,
		CanReschedule: j.Status == core.StatusFailed,
	})
}

func (u *UI) abortJob(w http.ResponseWriter, r *http.Request) {
	if err := u.svc.AbortJob(r.PathValue("id")); err != nil {
		httpErr(w, err)
		return
	}
	http.Redirect(w, r, "/jobs/"+r.PathValue("id"), http.StatusSeeOther)
}

func (u *UI) rescheduleJob(w http.ResponseWriter, r *http.Request) {
	if err := u.svc.RescheduleJob(r.PathValue("id")); err != nil {
		httpErr(w, err)
		return
	}
	http.Redirect(w, r, "/jobs/"+r.PathValue("id"), http.StatusSeeOther)
}

// resultsRow is one line of the raw-metric table.
type resultsRow struct {
	JobID string
	Label string
	Cells []string
}

// results renders the analysis page: every diagram the system declares,
// built from the evaluation's finished jobs (paper Fig. 3d).
func (u *UI) results(w http.ResponseWriter, r *http.Request) {
	ev, err := u.svc.GetEvaluation(r.PathValue("id"))
	if err != nil {
		httpErr(w, err)
		return
	}
	exp, err := u.svc.GetExperiment(ev.ExperimentID)
	if err != nil {
		httpErr(w, err)
		return
	}
	sys, err := u.svc.GetSystem(exp.SystemID)
	if err != nil {
		httpErr(w, err)
		return
	}
	jobs, err := u.svc.ListJobs(ev.ID)
	if err != nil {
		httpErr(w, err)
		return
	}

	var rows []analysis.ResultRow
	type jobRow struct {
		job *core.Job
		row analysis.ResultRow
	}
	var jobRows []jobRow
	for _, j := range jobs {
		if j.Status != core.StatusFinished {
			continue
		}
		res, err := u.svc.GetJobResult(j.ID)
		if err != nil {
			continue
		}
		row, err := analysis.RowFromResult(j, res.JSON)
		if err != nil {
			continue
		}
		rows = append(rows, row)
		jobRows = append(jobRows, jobRow{j, row})
	}

	type diagram struct {
		Title string
		SVG   template.HTML
	}
	var diagrams []diagram
	for _, spec := range sys.Diagrams {
		chart, err := analysis.BuildChart(spec, rows)
		if err != nil {
			continue
		}
		svg, err := analysis.RenderSVG(chart, 640, 340)
		if err != nil {
			continue
		}
		// The SVG is generated by our renderer from escaped inputs; mark
		// it as trusted HTML so the template embeds rather than escapes it.
		diagrams = append(diagrams, diagram{Title: spec.Title, SVG: template.HTML(svg)})
	}

	// Raw metric table: union of headline metric names (skip dotted
	// sub-metrics to keep the table readable).
	nameSet := map[string]bool{}
	for _, jr := range jobRows {
		for k := range jr.row.Values {
			if !strings.ContainsAny(k, ".[") {
				nameSet[k] = true
			}
		}
	}
	metricNames := make([]string, 0, len(nameSet))
	for n := range nameSet {
		metricNames = append(metricNames, n)
	}
	sort.Strings(metricNames)
	var tableRows []resultsRow
	for _, jr := range jobRows {
		row := resultsRow{JobID: jr.job.ID, Label: jr.job.Label()}
		for _, n := range metricNames {
			if v, ok := jr.row.Values[n]; ok {
				row.Cells = append(row.Cells, trimFloat(v))
			} else {
				row.Cells = append(row.Cells, "-")
			}
		}
		tableRows = append(tableRows, row)
	}

	u.render(w, "results", "Results "+ev.ID, struct {
		Evaluation  *core.Evaluation
		HasResults  bool
		Diagrams    []diagram
		MetricNames []string
		Rows        []resultsRow
	}{ev, len(rows) > 0, diagrams, metricNames, tableRows})
}

// trimFloat renders numbers without trailing noise.
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
