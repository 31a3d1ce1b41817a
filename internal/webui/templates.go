package webui

// pageTemplates holds the full template set of the web UI. The layout
// mirrors the paper's screenshots: a navigation bar, overview tables, and
// detail pages for systems (Fig. 2), experiments (Fig. 3a), evaluations
// (Fig. 3b), jobs (Fig. 3c) and results (Fig. 3d).
const pageTemplates = `
{{define "layout_top"}}
<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}} — Chronos</title>
<style>
body { font-family: system-ui, sans-serif; margin: 0; background: #f4f6f8; color: #222; }
nav { background: #1b5e20; color: white; padding: 10px 24px; }
nav a { color: #c8e6c9; margin-right: 18px; text-decoration: none; font-weight: 600; }
nav a:hover { color: white; }
main { max-width: 1100px; margin: 24px auto; padding: 0 16px; }
h1 { font-size: 22px; } h2 { font-size: 17px; margin-top: 28px; }
table { border-collapse: collapse; width: 100%; background: white; box-shadow: 0 1px 2px rgba(0,0,0,.08); }
th, td { text-align: left; padding: 8px 12px; border-bottom: 1px solid #e0e0e0; font-size: 14px; }
th { background: #eceff1; }
.status { padding: 2px 8px; border-radius: 10px; font-size: 12px; font-weight: 600; }
.status-scheduled { background: #e3f2fd; color: #1565c0; }
.status-running { background: #fff8e1; color: #ef6c00; }
.status-finished { background: #e8f5e9; color: #2e7d32; }
.status-failed { background: #ffebee; color: #c62828; }
.status-aborted { background: #eceff1; color: #546e7a; }
.progress { background: #e0e0e0; border-radius: 4px; height: 14px; width: 160px; display: inline-block; }
.progress > div { background: #43a047; height: 14px; border-radius: 4px; }
.card { background: white; padding: 16px 20px; margin: 12px 0; box-shadow: 0 1px 2px rgba(0,0,0,.08); }
pre.log { background: #263238; color: #eceff1; padding: 12px; overflow-x: auto; font-size: 12px; }
form.inline { display: inline; }
button { background: #1b5e20; color: white; border: 0; padding: 6px 14px; border-radius: 4px; cursor: pointer; }
button.danger { background: #c62828; }
.muted { color: #777; font-size: 13px; }
</style>
</head>
<body>
<nav>
<a href="/">Chronos</a>
<a href="/projects">Projects</a>
<a href="/systems">Systems</a>
<a href="/deployments">Deployments</a>
<a href="/status">Status</a>
{{if .SignedIn}}<form class="inline" method="post" action="/logout"><button type="submit">Sign out</button></form>{{end}}
</nav>
<main>
{{end}}

{{define "layout_bottom"}}
</main>
</body>
</html>
{{end}}

{{define "status_badge"}}<span class="status status-{{.}}">{{.}}</span>{{end}}

{{define "dashboard"}}
{{template "layout_top" .}}
<h1>Evaluations-as-a-Service</h1>
<div class="card">
<p>{{.Data.Projects}} projects · {{.Data.Systems}} systems · {{.Data.Deployments}} deployments</p>
<p class="muted">Chronos automates the entire evaluation workflow: define experiments,
schedule evaluations, monitor jobs, analyze results.</p>
</div>
{{template "layout_bottom" .}}
{{end}}

{{define "login"}}
{{template "layout_top" .}}
<h1>Sign in</h1>
{{if .Data}}<p class="status-failed">{{.Data}}</p>{{end}}
<form class="card" method="post" action="/login">
<p><label>User <input name="user" required autofocus></label></p>
<p><label>Password <input name="password" type="password" required></label></p>
<button type="submit">Sign in</button>
</form>
{{template "layout_bottom" .}}
{{end}}

{{define "serverstatus"}}
{{template "layout_top" .}}
<h1>Server status</h1>
<p class="muted">Live view over <code>GET /metrics</code>, sampled every 2s in your browser.
On an auth-enabled server the scrape needs the replication token or an admin session.</p>
<div id="obs-err" class="card" style="display:none;color:#c62828"></div>
<div class="card" id="obs-cards" style="display:none">
<table>
<tr><th>Metric</th><th>Now</th><th style="width:240px">Last 2 minutes</th></tr>
<tr><td>Commit throughput (records/s)</td><td id="v-rate">-</td><td><canvas id="s-rate" width="220" height="28"></canvas></td></tr>
<tr><td>Commit batch p99 (ms)</td><td id="v-p99">-</td><td><canvas id="s-p99" width="220" height="28"></canvas></td></tr>
<tr><td>Rows stored</td><td id="v-rows">-</td><td><canvas id="s-rows" width="220" height="28"></canvas></td></tr>
<tr><td>HTTP requests in flight</td><td id="v-http">-</td><td><canvas id="s-http" width="220" height="28"></canvas></td></tr>
<tr><td>Replication lag (segments)</td><td id="v-lag">-</td><td><canvas id="s-lag" width="220" height="28"></canvas></td></tr>
</table>
</div>
<script>
(function () {
	var hist = {}, MAX = 60;
	var panels = [
		["chronos_store_commit_records_per_second", "", "rate", 1],
		["chronos_store_commit_batch_seconds", 'quantile="0.99"', "p99", 1000],
		["chronos_store_rows", "", "rows", 1],
		["chronos_http_in_flight", "", "http", 1],
		["chronos_repl_lag_segments", "", "lag", 1]
	];
	function parse(text) {
		var out = {};
		text.split("\n").forEach(function (ln) {
			if (!ln || ln[0] === "#") return;
			var sp = ln.lastIndexOf(" ");
			if (sp < 0) return;
			out[ln.slice(0, sp)] = parseFloat(ln.slice(sp + 1));
		});
		return out;
	}
	function spark(id, vals) {
		var c = document.getElementById(id), ctx = c.getContext("2d");
		ctx.clearRect(0, 0, c.width, c.height);
		if (vals.length < 2) return;
		var max = Math.max.apply(null, vals), min = Math.min.apply(null, vals);
		if (max === min) max = min + 1;
		ctx.strokeStyle = "#1b5e20"; ctx.lineWidth = 1.5; ctx.beginPath();
		vals.forEach(function (v, i) {
			var x = i / (MAX - 1) * (c.width - 2) + 1;
			var y = c.height - 3 - (v - min) / (max - min) * (c.height - 6);
			i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
		});
		ctx.stroke();
	}
	function tick() {
		fetch("/metrics").then(function (r) {
			if (!r.ok) throw new Error("GET /metrics -> " + r.status);
			return r.text();
		}).then(function (text) {
			var samples = parse(text);
			document.getElementById("obs-err").style.display = "none";
			document.getElementById("obs-cards").style.display = "";
			panels.forEach(function (p) {
				var key = p[1] ? p[0] + "{" + p[1] + "}" : p[0];
				var v = samples[key];
				if (v === undefined) {
					document.getElementById("v-" + p[2]).textContent = "n/a";
					return;
				}
				v *= p[3];
				var h = hist[p[2]] = (hist[p[2]] || []).concat([v]).slice(-MAX);
				document.getElementById("v-" + p[2]).textContent =
					Math.abs(v) >= 100 ? v.toFixed(0) : v.toPrecision(3);
				spark("s-" + p[2], h);
			});
		}).catch(function (err) {
			var e = document.getElementById("obs-err");
			e.textContent = "metrics unavailable: " + err.message;
			e.style.display = "";
		});
	}
	tick();
	setInterval(tick, 2000);
})();
</script>
{{template "layout_bottom" .}}
{{end}}

{{define "projects"}}
{{template "layout_top" .}}
<h1>Projects</h1>
<table>
<tr><th>ID</th><th>Name</th><th>Description</th><th>Archived</th></tr>
{{range .Data}}
<tr><td><a href="/projects/{{.ID}}">{{.ID}}</a></td><td>{{.Name}}</td>
<td>{{.Description}}</td><td>{{if .Archived}}yes{{end}}</td></tr>
{{end}}
</table>
{{template "layout_bottom" .}}
{{end}}

{{define "project"}}
{{template "layout_top" .}}
<h1>Project {{.Data.Project.Name}}</h1>
<p class="muted">{{.Data.Project.Description}} {{if .Data.Project.Archived}}(archived){{end}}</p>
<h2>Experiments</h2>
<p><a href="/projects/{{.Data.Project.ID}}/experiments/new">+ New Experiment</a></p>
<table>
<tr><th>ID</th><th>Name</th><th>System</th><th>Archived</th></tr>
{{range .Data.Experiments}}
<tr><td><a href="/experiments/{{.ID}}">{{.ID}}</a></td><td>{{.Name}}</td>
<td><a href="/systems/{{.SystemID}}">{{.SystemID}}</a></td><td>{{if .Archived}}yes{{end}}</td></tr>
{{end}}
</table>
{{template "layout_bottom" .}}
{{end}}

{{define "systems"}}
{{template "layout_top" .}}
<h1>Systems under Evaluation</h1>
<table>
<tr><th>ID</th><th>Name</th><th>Description</th><th>Source</th></tr>
{{range .Data}}
<tr><td><a href="/systems/{{.ID}}">{{.ID}}</a></td><td>{{.Name}}</td>
<td>{{.Description}}</td><td>{{.Source}}</td></tr>
{{end}}
</table>
{{template "layout_bottom" .}}
{{end}}

{{define "system"}}
{{template "layout_top" .}}
<h1>System {{.Data.System.Name}}</h1>
<p class="muted">{{.Data.System.Description}}</p>
<h2>Parameters</h2>
<table>
<tr><th>Name</th><th>Label</th><th>Type</th><th>Default</th><th>Constraints</th></tr>
{{range .Data.System.Parameters}}
<tr><td>{{.Name}}</td><td>{{.Label}}</td><td>{{.Type}}</td><td>{{.Default}}</td>
<td class="muted">{{if .Options}}options: {{.Options}}{{end}}
{{if or .Min .Max}} range [{{.Min}}, {{.Max}}]{{end}}
{{if .RatioParts}} parts: {{.RatioParts}}{{end}}</td></tr>
{{end}}
</table>
<h2>Result Diagrams</h2>
<table>
<tr><th>Type</th><th>Title</th><th>Metric</th><th>X</th><th>Series</th></tr>
{{range .Data.System.Diagrams}}
<tr><td>{{.Type}}</td><td>{{.Title}}</td><td>{{.Metric}}</td><td>{{.XParam}}</td><td>{{.SeriesParam}}</td></tr>
{{end}}
</table>
<h2>Deployments</h2>
<table>
<tr><th>ID</th><th>Name</th><th>Environment</th><th>Version</th><th>Active</th></tr>
{{range .Data.Deployments}}
<tr><td>{{.ID}}</td><td>{{.Name}}</td><td>{{.Environment}}</td><td>{{.Version}}</td>
<td>{{if .Active}}yes{{else}}no{{end}}</td></tr>
{{end}}
</table>
{{template "layout_bottom" .}}
{{end}}

{{define "deployments"}}
{{template "layout_top" .}}
<h1>Deployments</h1>
<table>
<tr><th>ID</th><th>System</th><th>Name</th><th>Environment</th><th>Version</th><th>Active</th></tr>
{{range .Data}}
<tr><td>{{.ID}}</td><td><a href="/systems/{{.SystemID}}">{{.SystemID}}</a></td>
<td>{{.Name}}</td><td>{{.Environment}}</td><td>{{.Version}}</td>
<td>{{if .Active}}yes{{else}}no{{end}}</td></tr>
{{end}}
</table>
{{template "layout_bottom" .}}
{{end}}

{{define "experiment_new"}}
{{template "layout_top" .}}
<h1>New Experiment — {{.Data.Project.Name}}</h1>
{{if not .Data.System}}
<div class="card">
<p>Choose the System under Evaluation:</p>
<ul>
{{range .Data.Systems}}
<li><a href="?system={{.ID}}">{{.Name}} ({{.ID}})</a></li>
{{end}}
</ul>
</div>
{{else}}
<form class="card" method="post" action="/projects/{{.Data.Project.ID}}/experiments">
<input type="hidden" name="system" value="{{.Data.System.ID}}">
<p><label>Name <input name="name" required></label></p>
<p><label>Description <input name="description" size="50"></label></p>
<table>
<tr><th>Parameter</th><th>Variants to sweep</th><th>Syntax</th><th>Default</th></tr>
{{range .Data.System.Fields}}
<tr>
<td>{{.Label}} <span class="muted">({{.Type}})</span></td>
<td><input name="param_{{.Name}}" size="30" placeholder="default"></td>
<td class="muted">{{.Hint}}</td>
<td class="muted">{{.Default}}</td>
</tr>
{{end}}
</table>
<p><label>Max attempts <input name="maxAttempts" size="4" placeholder="3"></label></p>
<button type="submit">Create Experiment</button>
</form>
{{end}}
{{template "layout_bottom" .}}
{{end}}

{{define "experiment"}}
{{template "layout_top" .}}
<h1>Experiment {{.Data.Experiment.Name}}</h1>
<p class="muted">{{.Data.Experiment.Description}}
{{if .Data.Experiment.Archived}}(archived){{end}}</p>
<div class="card">
<h2>Parameter Settings</h2>
<table>
<tr><th>Parameter</th><th>Variants</th></tr>
{{range $name, $values := .Data.Experiment.Settings}}
<tr><td>{{$name}}</td><td>{{range $values}}{{.}} {{end}}</td></tr>
{{end}}
</table>
</div>
<form method="post" action="/experiments/{{.Data.Experiment.ID}}/run">
<button type="submit">Create Evaluation</button>
</form>
<h2>Evaluations</h2>
<table>
<tr><th>ID</th><th>#</th><th>Created</th></tr>
{{range .Data.Evaluations}}
<tr><td><a href="/evaluations/{{.ID}}">{{.ID}}</a></td><td>{{.Number}}</td><td>{{.Created}}</td></tr>
{{end}}
</table>
{{template "layout_bottom" .}}
{{end}}

{{define "evaluation"}}
{{template "layout_top" .}}
<h1>Evaluation {{.Data.Evaluation.ID}}</h1>
<div class="card">
<p>
{{.Data.Status.Finished}}/{{.Data.Status.Total}} finished ·
{{.Data.Status.Running}} running · {{.Data.Status.Scheduled}} scheduled ·
{{.Data.Status.Failed}} failed · {{.Data.Status.Aborted}} aborted
</p>
<div class="progress"><div style="width: {{printf "%.0f" .Data.Status.Progress}}%"></div></div>
<a href="/evaluations/{{.Data.Evaluation.ID}}/results">Results & Diagrams</a>
</div>
<h2>Jobs</h2>
<table>
<tr><th>ID</th><th>Parameters</th><th>Status</th><th>Progress</th><th>Deployment</th><th>Attempts</th></tr>
{{range .Data.Jobs}}
<tr>
<td><a href="/jobs/{{.ID}}">{{.ID}}</a></td>
<td class="muted">{{.Label}}</td>
<td>{{template "status_badge" .Status}}</td>
<td><div class="progress"><div style="width: {{.Progress}}%"></div></div> {{.Progress}}%</td>
<td>{{.DeploymentID}}</td>
<td>{{.Attempts}}</td>
</tr>
{{end}}
</table>
{{template "layout_bottom" .}}
{{end}}

{{define "job"}}
{{template "layout_top" .}}
<h1>Job {{.Data.Job.ID}}</h1>
<div class="card">
<p>Status: {{template "status_badge" .Data.Job.Status}}
 · Progress: {{.Data.Job.Progress}}% · Attempts: {{.Data.Job.Attempts}}</p>
<p class="muted">Parameters: {{.Data.Job.Label}}</p>
{{if .Data.Job.Error}}<p class="status-failed">Error: {{.Data.Job.Error}}</p>{{end}}
{{if .Data.CanAbort}}
<form class="inline" method="post" action="/jobs/{{.Data.Job.ID}}/abort">
<button class="danger" type="submit">Abort</button></form>
{{end}}
{{if .Data.CanReschedule}}
<form class="inline" method="post" action="/jobs/{{.Data.Job.ID}}/reschedule">
<button type="submit">Re-schedule</button></form>
{{end}}
</div>
{{if .Data.Phases}}
<h2>Workload Phases</h2>
<table>
<tr><th>#</th><th>Phase</th><th>Mix</th><th>Distribution</th><th>Ops</th><th>Errors</th>
<th>Throughput</th><th>Duration (ms)</th><th>p50 (µs)</th><th>p95 (µs)</th><th>p99 (µs)</th></tr>
{{range .Data.Phases}}
<tr><td>{{.Index}}</td><td>{{.Phase}}</td><td class="muted">{{.Mix}}</td>
<td class="muted">{{.Distribution}}</td><td>{{.Operations}}</td><td>{{.Errors}}</td>
<td>{{printf "%.0f" .Throughput}}</td><td>{{printf "%.1f" .DurationMs}}</td>
<td>{{printf "%.2f" .LatencyP50Us}}</td><td>{{printf "%.2f" .LatencyP95Us}}</td><td>{{printf "%.2f" .LatencyP99Us}}</td></tr>
{{end}}
</table>
{{end}}
<h2>Timeline</h2>
<table>
<tr><th>Time</th><th>Event</th><th>Message</th></tr>
{{range .Data.Timeline}}
<tr><td class="muted">{{.Time}}</td><td>{{.Kind}}</td><td>{{.Message}}</td></tr>
{{end}}
</table>
<h2>Log Output</h2>
<pre class="log">{{.Data.Log}}</pre>
{{template "layout_bottom" .}}
{{end}}

{{define "results"}}
{{template "layout_top" .}}
<h1>Results — Evaluation {{.Data.Evaluation.ID}}</h1>
{{if not .Data.HasResults}}
<div class="card"><p>No finished jobs yet.</p></div>
{{end}}
{{range .Data.Diagrams}}
<div class="card">
{{.SVG}}
</div>
{{end}}
<h2>Raw Metrics</h2>
<table>
<tr><th>Job</th><th>Parameters</th>{{range .Data.MetricNames}}<th>{{.}}</th>{{end}}</tr>
{{range .Data.Rows}}
<tr><td>{{.JobID}}</td><td class="muted">{{.Label}}</td>
{{range .Cells}}<td>{{.}}</td>{{end}}</tr>
{{end}}
</table>
{{template "layout_bottom" .}}
{{end}}
`
