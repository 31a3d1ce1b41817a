// Package webui implements Chronos Control's web user interface
// (requirement i: "an easy to use UI for defining new experiments, for
// scheduling their execution, for monitoring their progress, and for
// analyzing their results"). It is a server-rendered html/template
// application over the core service — the Go counterpart of the original
// PHP/Bootstrap frontend.
package webui

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"

	"chronos/internal/analysis"
	"chronos/internal/auth"
	"chronos/internal/core"
)

// ui renders the HTML pages.
type ui struct {
	svc  *core.Service
	auth *auth.Authenticator
}

var tpl = template.Must(template.New("webui").Parse(pageTemplates))

// Page is one row the UI adds to the HTTP edge's route table. The UI owns
// no mux and no gate: internal/rest admits, refuses, logs and counts a
// page request in the one place it does so for an API call, and answers
// the error Serve returns the way it answers a service error there.
type Page struct {
	Method, Path string
	// Gate is who may ask, by the name of the edge's gate: view to look,
	// member to act, viewer for the one page that must stay up while a
	// follower is degraded, open for the session's own two ends.
	Gate  string
	Serve func(http.ResponseWriter, *http.Request) error
}

// Pages lists the UI's pages over a service. sessions is the edge's
// authenticator: the login form opens its sessions there.
func Pages(svc *core.Service, sessions *auth.Authenticator) []Page {
	u := &ui{svc: svc, auth: sessions}
	return []Page{
		{"GET", "/{$}", "view", u.dashboard},
		{"GET", "/status", "viewer", u.status},
		{"GET", "/projects", "view", u.projects},
		{"GET", "/projects/{id}", "view", u.project},
		{"GET", "/systems", "view", u.systems},
		{"GET", "/systems/{id}", "view", u.system},
		{"GET", "/deployments", "view", u.deployments},
		{"GET", "/projects/{id}/experiments/new", "view", u.newExperiment},
		{"POST", "/projects/{id}/experiments", "member", u.createExperiment},
		{"GET", "/experiments/{id}", "view", u.experiment},
		{"POST", "/experiments/{id}/run", "member", u.runExperiment},
		{"GET", "/evaluations/{id}", "view", u.evaluation},
		{"GET", "/evaluations/{id}/results", "view", u.results},
		{"GET", "/jobs/{id}", "view", u.job},
		{"POST", "/jobs/{id}/abort", "member", u.abortJob},
		{"POST", "/jobs/{id}/reschedule", "member", u.rescheduleJob},
		{"GET", "/login", "open", u.ifSessions(u.loginForm)},
		{"POST", "/login", "open", u.ifSessions(u.login)},
		{"POST", "/logout", "open", u.ifSessions(u.logout)},
	}
}

// page is the template context.
type page struct {
	Title string
	Data  any
	// SignedIn puts the sign-out button in the navigation bar: with
	// session auth on, every page but the login form sits behind a session.
	SignedIn bool
}

// render executes a named page template.
func (u *ui) render(w http.ResponseWriter, name, title string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	p := page{Title: title, Data: data, SignedIn: name != "login" && u.auth.Enabled()}
	if err := tpl.ExecuteTemplate(w, name, p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (u *ui) dashboard(w http.ResponseWriter, r *http.Request) error {
	projects, err := u.svc.ListProjects()
	if err != nil {
		return err
	}
	systems, err := u.svc.ListSystems()
	if err != nil {
		return err
	}
	deployments, err := u.svc.ListDeployments("")
	if err != nil {
		return err
	}
	u.render(w, "dashboard", "Dashboard", struct {
		Projects, Systems, Deployments int
	}{len(projects), len(systems), len(deployments)})
	return nil
}

// status renders the live server-status page. The page itself is
// static: a script polls GET /metrics (same origin, so the ship gate
// applies as it would to any scraper) and draws sparklines client-side;
// the server renders no metric values into the HTML.
func (u *ui) status(w http.ResponseWriter, r *http.Request) error {
	u.render(w, "serverstatus", "Server status", nil)
	return nil
}

func (u *ui) projects(w http.ResponseWriter, r *http.Request) error {
	ps, err := u.svc.ListProjects()
	if err != nil {
		return err
	}
	u.render(w, "projects", "Projects", ps)
	return nil
}

func (u *ui) project(w http.ResponseWriter, r *http.Request) error {
	p, err := u.svc.GetProject(r.PathValue("id"))
	if err != nil {
		return err
	}
	exps, err := u.svc.ListExperiments(p.ID)
	if err != nil {
		return err
	}
	u.render(w, "project", "Project "+p.Name, struct {
		Project     *core.Project
		Experiments []*core.Experiment
	}{p, exps})
	return nil
}

func (u *ui) systems(w http.ResponseWriter, r *http.Request) error {
	out, err := u.svc.ListSystems()
	if err != nil {
		return err
	}
	u.render(w, "systems", "Systems", out)
	return nil
}

func (u *ui) system(w http.ResponseWriter, r *http.Request) error {
	sys, err := u.svc.GetSystem(r.PathValue("id"))
	if err != nil {
		return err
	}
	deps, err := u.svc.ListDeployments(sys.ID)
	if err != nil {
		return err
	}
	u.render(w, "system", "System "+sys.Name, struct {
		System      *core.System
		Deployments []*core.Deployment
	}{sys, deps})
	return nil
}

func (u *ui) deployments(w http.ResponseWriter, r *http.Request) error {
	deps, err := u.svc.ListDeployments("")
	if err != nil {
		return err
	}
	u.render(w, "deployments", "Deployments", deps)
	return nil
}

func (u *ui) experiment(w http.ResponseWriter, r *http.Request) error {
	exp, err := u.svc.GetExperiment(r.PathValue("id"))
	if err != nil {
		return err
	}
	evs, err := u.svc.ListEvaluations(exp.ID)
	if err != nil {
		return err
	}
	u.render(w, "experiment", "Experiment "+exp.Name, struct {
		Experiment  *core.Experiment
		Evaluations []*core.Evaluation
	}{exp, evs})
	return nil
}

func (u *ui) runExperiment(w http.ResponseWriter, r *http.Request) error {
	ev, _, err := u.svc.CreateEvaluation(r.PathValue("id"))
	if err != nil {
		return err
	}
	http.Redirect(w, r, "/evaluations/"+ev.ID, http.StatusSeeOther)
	return nil
}

func (u *ui) evaluation(w http.ResponseWriter, r *http.Request) error {
	ev, err := u.svc.GetEvaluation(r.PathValue("id"))
	if err != nil {
		return err
	}
	jobs, err := u.svc.ListJobs(ev.ID)
	if err != nil {
		return err
	}
	// The status bar counts the rows of the table below it: one read, one
	// cut, so the two cannot disagree.
	u.render(w, "evaluation", "Evaluation "+ev.ID, struct {
		Evaluation *core.Evaluation
		Jobs       []*core.Job
		Status     core.EvaluationStatus
	}{ev, jobs, core.StatusOfJobs(ev.ID, jobs)})
	return nil
}

func (u *ui) job(w http.ResponseWriter, r *http.Request) error {
	j, err := u.svc.GetJob(r.PathValue("id"))
	if err != nil {
		return err
	}
	timeline, err := u.svc.JobTimeline(j.ID)
	if err != nil {
		return err
	}
	logs, err := u.svc.JobLogs(j.ID)
	if err != nil {
		return err
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
	return nil
}

func (u *ui) abortJob(w http.ResponseWriter, r *http.Request) error {
	if err := u.svc.AbortJob(r.PathValue("id")); err != nil {
		return err
	}
	http.Redirect(w, r, "/jobs/"+r.PathValue("id"), http.StatusSeeOther)
	return nil
}

func (u *ui) rescheduleJob(w http.ResponseWriter, r *http.Request) error {
	if err := u.svc.RescheduleJob(r.PathValue("id")); err != nil {
		return err
	}
	http.Redirect(w, r, "/jobs/"+r.PathValue("id"), http.StatusSeeOther)
	return nil
}

// resultsRow is one line of the raw-metric table.
type resultsRow struct {
	JobID string
	Label string
	Cells []string
}

// results renders the analysis page: every diagram the system declares,
// built from the evaluation's finished jobs (paper Fig. 3d).
func (u *ui) results(w http.ResponseWriter, r *http.Request) error {
	ev, err := u.svc.GetEvaluation(r.PathValue("id"))
	if err != nil {
		return err
	}
	exp, err := u.svc.GetExperiment(ev.ExperimentID)
	if err != nil {
		return err
	}
	sys, err := u.svc.GetSystem(exp.SystemID)
	if err != nil {
		return err
	}
	jobs, err := u.svc.ListJobs(ev.ID)
	if err != nil {
		return err
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
	return nil
}

// trimFloat renders numbers without trailing noise.
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
