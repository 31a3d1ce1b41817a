package analysis

import (
	"fmt"
	"sync"
)

// Renderer turns a Chart into output; one Renderer per diagram type.
// Implementations must be safe for concurrent use.
type Renderer interface {
	// Type is the diagram type key referenced by core.DiagramSpec.Type.
	Type() string
	// ASCII renders for terminals; width is the target character width.
	ASCII(c *Chart, width int) (string, error)
	// SVG renders for the web UI with the given pixel dimensions.
	SVG(c *Chart, w, h int) (string, error)
}

// registry holds the installed diagram types. The built-ins (bar, line,
// pie) register at init; extension repositories add more via Register
// (requirement vi: "support the extension by custom ones").
var registry = struct {
	sync.RWMutex
	m map[string]Renderer
}{m: map[string]Renderer{}}

// Register installs a renderer, replacing any previous one of the same
// type.
func Register(r Renderer) {
	registry.Lock()
	defer registry.Unlock()
	registry.m[r.Type()] = r
}

// Lookup returns the renderer for a diagram type.
func Lookup(diagramType string) (Renderer, error) {
	registry.RLock()
	defer registry.RUnlock()
	r, ok := registry.m[diagramType]
	if !ok {
		return nil, fmt.Errorf("analysis: no renderer for diagram type %q", diagramType)
	}
	return r, nil
}

// RenderASCII renders the chart with its spec's registered renderer.
func RenderASCII(c *Chart, width int) (string, error) {
	r, err := Lookup(c.Spec.Type)
	if err != nil {
		return "", err
	}
	return r.ASCII(c, width)
}

// RenderSVG renders the chart with its spec's registered renderer.
func RenderSVG(c *Chart, w, h int) (string, error) {
	r, err := Lookup(c.Spec.Type)
	if err != nil {
		return "", err
	}
	return r.SVG(c, w, h)
}

func init() {
	Register(lineRenderer{})
	Register(barRenderer{})
	Register(pieRenderer{})
}
