package extension

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chronos/internal/analysis"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// writeRepo materialises a test repository directory.
func writeRepo(t *testing.T, manifest string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const redisSystem = `{
	"name": "redis-sim",
	"description": "an in-memory KV store",
	"parameters": [
		{"name": "pipeline", "type": "boolean", "default": {"kind": "bool", "bool": false}},
		{"name": "clients", "type": "interval", "min": 1, "max": 64,
		 "default": {"kind": "int", "int": 1}}
	],
	"diagrams": [
		{"type": "line", "title": "Ops", "metric": "throughput", "xParam": "clients"}
	]
}`

func TestLoadAndInstall(t *testing.T) {
	dir := writeRepo(t, `{
		"name": "community-systems",
		"version": "v1.2.0",
		"systems": ["redis.json"],
		"diagrams": [{"type": "trendline", "base": "line"}]
	}`, map[string]string{"redis.json": redisSystem})

	repo, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if repo.Source() != "community-systems@v1.2.0" {
		t.Fatalf("source = %q", repo.Source())
	}
	if len(repo.Systems) != 1 || repo.Systems[0].Name != "redis-sim" {
		t.Fatalf("systems = %+v", repo.Systems)
	}

	// Diagram alias lands in the registry and renders via its base.
	if err := repo.InstallDiagrams(); err != nil {
		t.Fatal(err)
	}
	r, err := analysis.Lookup("trendline")
	if err != nil {
		t.Fatal(err)
	}
	chart := &analysis.Chart{Spec: core.DiagramSpec{Type: "trendline", Title: "T", Metric: "m"}}
	out, err := r.ASCII(chart, 80)
	if err != nil || !strings.Contains(out, "T") {
		t.Fatalf("alias render = %q, %v", out, err)
	}

	// Systems install into the service with provenance.
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	installed, err := repo.InstallSystems(svc)
	if err != nil {
		t.Fatal(err)
	}
	if len(installed) != 1 {
		t.Fatalf("installed = %d", len(installed))
	}
	got, err := svc.GetSystem(installed[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "community-systems@v1.2.0" {
		t.Fatalf("source = %q", got.Source)
	}
	if d, ok := got.ParamDef("clients"); !ok || d.Type != params.TypeInterval {
		t.Fatalf("clients def = %+v ok=%v", d, ok)
	}
	// Re-install is idempotent.
	again, err := repo.InstallSystems(svc)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("re-install created %d systems", len(again))
	}
	all, _ := svc.ListSystems()
	if len(all) != 1 {
		t.Fatalf("systems after re-install = %d", len(all))
	}
}

func TestLoadErrors(t *testing.T) {
	// Missing manifest.
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
	// Broken manifest JSON.
	dir := writeRepo(t, `{broken`, nil)
	if _, err := Load(dir); err == nil {
		t.Fatal("broken manifest accepted")
	}
	// Manifest without name.
	dir = writeRepo(t, `{"version": "v1"}`, nil)
	if _, err := Load(dir); err == nil {
		t.Fatal("nameless manifest accepted")
	}
	// Referenced system file missing.
	dir = writeRepo(t, `{"name": "r", "version": "v1", "systems": ["ghost.json"]}`, nil)
	if _, err := Load(dir); err == nil {
		t.Fatal("missing system file accepted")
	}
	// Invalid parameter definition inside a system.
	dir = writeRepo(t, `{"name": "r", "version": "v1", "systems": ["bad.json"]}`,
		map[string]string{"bad.json": `{"name": "bad", "parameters": [{"name": "x", "type": "value"}]}`})
	if _, err := Load(dir); err == nil {
		t.Fatal("invalid parameter accepted")
	}
	// System file without name.
	dir = writeRepo(t, `{"name": "r", "version": "v1", "systems": ["anon.json"]}`,
		map[string]string{"anon.json": `{"parameters": []}`})
	if _, err := Load(dir); err == nil {
		t.Fatal("anonymous system accepted")
	}
	// Diagram alias with unknown base.
	dir = writeRepo(t, `{"name": "r", "version": "v1",
		"diagrams": [{"type": "x", "base": "hologram"}]}`, nil)
	if _, err := Load(dir); err == nil {
		t.Fatal("unknown base renderer accepted")
	}
	// Diagram alias without type.
	dir = writeRepo(t, `{"name": "r", "version": "v1",
		"diagrams": [{"base": "line"}]}`, nil)
	if _, err := Load(dir); err == nil {
		t.Fatal("alias without type accepted")
	}
}

// TestInstallIsOneCommitPerSystem: each system is stored with its source
// in the commit that creates it, so a stop between two commits can never
// leave a system the re-install check fails to recognise.
func TestInstallIsOneCommitPerSystem(t *testing.T) {
	files := map[string]string{}
	var names []string
	for _, n := range []string{"a", "b", "c"} {
		files[n+".json"] = `{"name": "sys-` + n + `", "parameters": []}`
		names = append(names, `"`+n+`.json"`)
	}
	repo, err := Load(writeRepo(t, `{"name": "r", "version": "v1", "systems": [`+strings.Join(names, ",")+`]}`, files))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	db, err := relstore.Open(t.TempDir(), &relstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	commits := reg.Counter("chronos_store_commits_total", "")
	before := commits.Value()
	if _, err := repo.InstallSystems(svc); err != nil {
		t.Fatal(err)
	}
	if n := commits.Value() - before; n != int64(len(repo.Systems)) {
		t.Fatalf("installing %d systems made %d commits, want one each", len(repo.Systems), n)
	}
	all, err := svc.ListSystems()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(repo.Systems) {
		t.Fatalf("stored %d systems, want %d", len(all), len(repo.Systems))
	}
	for _, sys := range all {
		if sys.Source != repo.Source() {
			t.Fatalf("system %s stored with source %q, want %q", sys.Name, sys.Source, repo.Source())
		}
	}
}
