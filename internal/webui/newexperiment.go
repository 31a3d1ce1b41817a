package webui

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"chronos/internal/params"
)

// The experiment-creation form (paper Fig. 3a: "Creation of an
// Experiment"): one input per system parameter, accepting a
// comma-separated list of variants to sweep. Empty inputs fall back to
// the parameter's default.

// parseVariants converts a form input into the swept values for one
// parameter, using the definition's type:
//
//	boolean   "true,false"
//	value     "1,2,4" / "1.5,2.5" / "wiredtiger,mmapv1"
//	interval  "1,2,4,8" (numbers within [min,max]) or "*" for min..max
//	ratio     "95:5,50:50"
//	checkbox  "a|b,c" (| separates selections within one variant)
func parseVariants(def params.Definition, input string) ([]params.Value, error) {
	input = strings.TrimSpace(input)
	if input == "" {
		return nil, nil // use default
	}
	if def.Type == params.TypeInterval && input == "*" {
		return def.IntervalValues(), nil
	}
	var out []params.Value
	for _, part := range strings.Split(input, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := parseOneValue(def, part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseOneValue(def params.Definition, s string) (params.Value, error) {
	switch def.Type {
	case params.TypeBoolean:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return params.Value{}, fmt.Errorf("parameter %q: %q is not a boolean", def.Name, s)
		}
		return params.Bool(b), nil
	case params.TypeCheckbox:
		var sel []string
		for _, e := range strings.Split(s, "|") {
			if e = strings.TrimSpace(e); e != "" {
				sel = append(sel, e)
			}
		}
		return params.StringList(sel...), nil
	case params.TypeRatio:
		var parts []int
		for _, e := range strings.Split(s, ":") {
			n, err := strconv.Atoi(strings.TrimSpace(e))
			if err != nil {
				return params.Value{}, fmt.Errorf("parameter %q: bad ratio %q", def.Name, s)
			}
			parts = append(parts, n)
		}
		return params.Ratio(parts...), nil
	case params.TypeInterval:
		return parseNumber(def.Name, s)
	case params.TypeValue:
		switch def.ValueKind {
		case params.KindInt:
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return params.Value{}, fmt.Errorf("parameter %q: %q is not an integer", def.Name, s)
			}
			return params.Int(n), nil
		case params.KindFloat:
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return params.Value{}, fmt.Errorf("parameter %q: %q is not a number", def.Name, s)
			}
			return params.Float(f), nil
		default:
			return params.String_(s), nil
		}
	}
	return params.Value{}, fmt.Errorf("parameter %q has unsupported type %q", def.Name, def.Type)
}

// parseNumber yields an int value for integral input, float otherwise.
func parseNumber(name, s string) (params.Value, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return params.Int(n), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return params.Float(f), nil
	}
	return params.Value{}, fmt.Errorf("parameter %q: %q is not numeric", name, s)
}

// newExperiment renders the creation form for a chosen system (or the
// system chooser when none is selected yet).
func (u *ui) newExperiment(w http.ResponseWriter, r *http.Request) error {
	p, err := u.svc.GetProject(r.PathValue("id"))
	if err != nil {
		return err
	}
	systems, err := u.svc.ListSystems()
	if err != nil {
		return err
	}
	sysID := r.URL.Query().Get("system")
	data := struct {
		Project *projectRef
		Systems []systemRef
		System  *systemForm
	}{Project: &projectRef{ID: p.ID, Name: p.Name}}
	for _, s := range systems {
		data.Systems = append(data.Systems, systemRef{ID: s.ID, Name: s.Name})
	}
	if sysID != "" {
		sys, err := u.svc.GetSystem(sysID)
		if err != nil {
			return err
		}
		form := &systemForm{ID: sys.ID, Name: sys.Name}
		for _, d := range sys.Parameters {
			form.Fields = append(form.Fields, paramField{
				Name: d.Name, Label: labelOr(d), Type: string(d.Type),
				Hint: fieldHint(d), Default: d.Default.String(),
			})
		}
		data.System = form
	}
	u.render(w, "experiment_new", "New Experiment", data)
	return nil
}

type projectRef struct{ ID, Name string }
type systemRef struct{ ID, Name string }

type systemForm struct {
	ID, Name string
	Fields   []paramField
}

type paramField struct {
	Name, Label, Type, Hint, Default string
}

func labelOr(d params.Definition) string {
	if d.Label != "" {
		return d.Label
	}
	return d.Name
}

// fieldHint renders the input syntax help per parameter type.
func fieldHint(d params.Definition) string {
	switch d.Type {
	case params.TypeBoolean:
		return "true,false"
	case params.TypeCheckbox:
		return "selections with |, variants with , — options: " + strings.Join(d.Options, " ")
	case params.TypeRatio:
		return "e.g. 95:5,50:50 — parts: " + strings.Join(d.RatioParts, ":")
	case params.TypeInterval:
		return fmt.Sprintf("numbers in [%v, %v], or * for every step", d.Min, d.Max)
	default:
		if len(d.Options) > 0 {
			return "options: " + strings.Join(d.Options, " ")
		}
		return "comma-separated variants"
	}
}

// createExperiment handles the form POST.
func (u *ui) createExperiment(w http.ResponseWriter, r *http.Request) error {
	if err := r.ParseForm(); err != nil {
		return err
	}
	projectID := r.PathValue("id")
	sysID := r.PostFormValue("system")
	name := r.PostFormValue("name")
	sys, err := u.svc.GetSystem(sysID)
	if err != nil {
		return err
	}
	settings := map[string][]params.Value{}
	for _, d := range sys.Parameters {
		variants, err := parseVariants(d, r.PostFormValue("param_"+d.Name))
		if err != nil {
			return err
		}
		if variants != nil {
			settings[d.Name] = variants
		}
	}
	maxAttempts := 0
	if s := r.PostFormValue("maxAttempts"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("max attempts %q is not an integer", s)
		}
		maxAttempts = n
	}
	exp, err := u.svc.CreateExperiment(projectID, sysID, name,
		r.PostFormValue("description"), settings, maxAttempts)
	if err != nil {
		return err
	}
	http.Redirect(w, r, "/experiments/"+exp.ID, http.StatusSeeOther)
	return nil
}
