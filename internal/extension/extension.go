// Package extension implements Chronos' extension repositories. The
// original system lets operators point Chronos Control at a git or
// mercurial repository containing PHP scripts with additional parameter
// and diagram types plus SuE definitions (paper §2.2: "the built-in set
// of types can be extended by providing an external repository").
//
// This reproduction cannot load code at runtime, so a repository is a
// directory with a manifest describing declarative extensions:
//
//	manifest.json       {"name": ..., "version": ..., "systems": [...], "diagrams": [...]}
//	<system>.json       a full SuE definition (parameters + diagrams)
//
// Diagram extensions alias a built-in renderer under a new type name with
// fixed dimensions, which covers the common "custom chart flavour" case
// without code execution.
package extension

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"chronos/internal/analysis"
	"chronos/internal/core"
	"chronos/internal/params"
)

// Manifest is the repository's top-level description.
type Manifest struct {
	// Name identifies the repository; recorded in System.Source.
	Name string `json:"name"`
	// Version pins the revision, like a git tag.
	Version string `json:"version"`
	// Systems lists SuE definition files relative to the repo root.
	Systems []string `json:"systems,omitempty"`
	// Diagrams lists declarative diagram-type extensions.
	Diagrams []DiagramAlias `json:"diagrams,omitempty"`
}

// DiagramAlias registers an existing renderer under a new type name.
type DiagramAlias struct {
	// Type is the new diagram type key.
	Type string `json:"type"`
	// Base is the built-in renderer to delegate to (line, bar, pie).
	Base string `json:"base"`
}

// SystemDef is an SuE definition file.
type SystemDef struct {
	Name        string              `json:"name"`
	Description string              `json:"description,omitempty"`
	Parameters  []params.Definition `json:"parameters"`
	Diagrams    []core.DiagramSpec  `json:"diagrams,omitempty"`
}

// Repository is a loaded extension repository.
type Repository struct {
	Dir      string
	Manifest Manifest
	Systems  []SystemDef
}

// Load reads and validates a repository directory.
func Load(dir string) (*Repository, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("extension: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("extension: parse manifest: %w", err)
	}
	if m.Name == "" {
		return nil, fmt.Errorf("extension: manifest without name")
	}
	repo := &Repository{Dir: dir, Manifest: m}
	for _, f := range m.Systems {
		data, err := os.ReadFile(filepath.Join(dir, filepath.Clean("/"+f)))
		if err != nil {
			return nil, fmt.Errorf("extension: read system %s: %w", f, err)
		}
		var def SystemDef
		if err := json.Unmarshal(data, &def); err != nil {
			return nil, fmt.Errorf("extension: parse system %s: %w", f, err)
		}
		if def.Name == "" {
			return nil, fmt.Errorf("extension: system file %s without name", f)
		}
		for i := range def.Parameters {
			if err := def.Parameters[i].Check(); err != nil {
				return nil, fmt.Errorf("extension: system %s: %w", def.Name, err)
			}
		}
		repo.Systems = append(repo.Systems, def)
	}
	for _, d := range m.Diagrams {
		if d.Type == "" || d.Base == "" {
			return nil, fmt.Errorf("extension: diagram alias needs type and base")
		}
		if _, err := analysis.Lookup(d.Base); err != nil {
			return nil, fmt.Errorf("extension: diagram %s: %w", d.Type, err)
		}
	}
	return repo, nil
}

// Source renders the provenance string recorded on imported systems.
func (r *Repository) Source() string {
	return r.Manifest.Name + "@" + r.Manifest.Version
}

// InstallDiagrams registers the repository's diagram aliases into the
// analysis registry.
func (r *Repository) InstallDiagrams() error {
	for _, d := range r.Manifest.Diagrams {
		base, err := analysis.Lookup(d.Base)
		if err != nil {
			return err
		}
		analysis.Register(aliasRenderer{typeName: d.Type, base: base})
	}
	return nil
}

// InstallSystems registers the repository's SuE definitions in Chronos
// Control, returning the created systems. Systems already registered
// under the same name and source are skipped (idempotent re-install,
// like pulling an unchanged repo).
func (r *Repository) InstallSystems(svc *core.Service) ([]*core.System, error) {
	existing, err := svc.ListSystems()
	if err != nil {
		return nil, err
	}
	present := map[string]bool{}
	for _, s := range existing {
		present[s.Name+"|"+s.Source] = true
	}
	var out []*core.System
	for _, def := range r.Systems {
		if present[def.Name+"|"+r.Source()] {
			continue
		}
		// One commit each, provenance included: a system is never stored
		// without the source the check above recognises it by.
		sys, err := svc.RegisterSystemFrom(r.Source(), def.Name, def.Description, def.Parameters, def.Diagrams)
		if err != nil {
			return nil, fmt.Errorf("extension: register %s: %w", def.Name, err)
		}
		out = append(out, sys)
	}
	return out, nil
}

// aliasRenderer delegates to a base renderer under a new type key.
type aliasRenderer struct {
	typeName string
	base     analysis.Renderer
}

func (a aliasRenderer) Type() string { return a.typeName }

func (a aliasRenderer) ASCII(c *analysis.Chart, width int) (string, error) {
	return a.base.ASCII(c, width)
}

func (a aliasRenderer) SVG(c *analysis.Chart, w, h int) (string, error) {
	return a.base.SVG(c, w, h)
}
