package core

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"chronos/internal/relstore"
)

// Archive export implements requirement (iv): "mechanisms for archiving
// the results of the evaluations as well as of all parameter settings
// which have led to these results". The export is a zip with one JSON
// file per entity, organised hierarchically:
//
//	project.json
//	systems/<system-id>.json
//	experiments/<experiment-id>.json
//	evaluations/<evaluation-id>/evaluation.json
//	evaluations/<evaluation-id>/jobs/<job-id>/job.json
//	evaluations/<evaluation-id>/jobs/<job-id>/result.json
//	evaluations/<evaluation-id>/jobs/<job-id>/result.zip
//	evaluations/<evaluation-id>/jobs/<job-id>/log.txt
//	evaluations/<evaluation-id>/jobs/<job-id>/timeline.json

// ProjectArchive is the parsed form of an export, used for re-import and
// by tests to verify round-trips.
type ProjectArchive struct {
	Project     *Project
	Systems     []*System
	Experiments []*Experiment
	Evaluations []*EvaluationArchive
}

// EvaluationArchive groups one evaluation with its jobs.
type EvaluationArchive struct {
	Evaluation *Evaluation
	Jobs       []*JobArchive
}

// JobArchive groups one job with its artefacts.
type JobArchive struct {
	Job      *Job
	Result   *Result
	Log      string
	Timeline []*Event
}

// ExportProject renders the complete archive zip of a project. The whole
// read is one View, so the archive is one consistent cut: a job finishing
// mid-export can never yield a zip whose job.json still says running
// while result.json already exists.
func (s *Service) ExportProject(projectID string) ([]byte, error) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)

	err := s.store.db.View(func(tx *relstore.Tx) error {
		p, err := s.store.GetProject(tx, projectID)
		if err != nil {
			return mapNotFound(err)
		}
		if err := writeJSON(zw, "project.json", p); err != nil {
			return err
		}
		exps, err := s.store.ListExperiments(tx, projectID)
		if err != nil {
			return err
		}
		seenSystems := map[string]bool{}
		for _, exp := range exps {
			if err := writeJSON(zw, "experiments/"+exp.ID+".json", exp); err != nil {
				return err
			}
			if !seenSystems[exp.SystemID] {
				seenSystems[exp.SystemID] = true
				sys, err := s.store.GetSystem(tx, exp.SystemID)
				if err != nil {
					return err
				}
				if err := writeJSON(zw, "systems/"+sys.ID+".json", sys); err != nil {
					return err
				}
			}
			evs, err := s.store.ListEvaluations(tx, exp.ID)
			if err != nil {
				return err
			}
			for _, ev := range evs {
				base := "evaluations/" + ev.ID + "/"
				if err := writeJSON(zw, base+"evaluation.json", ev); err != nil {
					return err
				}
				jobs, err := s.store.ListJobsByEvaluation(tx, ev.ID)
				if err != nil {
					return err
				}
				for _, j := range jobs {
					jb := base + "jobs/" + j.ID + "/"
					if err := writeJSON(zw, jb+"job.json", j); err != nil {
						return err
					}
					if res, err := s.store.GetResult(tx, j.ID); err == nil {
						if err := writeRaw(zw, jb+"result.json", res.JSON); err != nil {
							return err
						}
						if len(res.Archive) > 0 {
							if err := writeRaw(zw, jb+"result.zip", res.Archive); err != nil {
								return err
							}
						}
					}
					logs, err := s.store.ListLogs(tx, j.ID)
					if err != nil {
						return err
					}
					if len(logs) > 0 {
						var lb bytes.Buffer
						for _, c := range logs {
							lb.WriteString(c.Text)
						}
						if err := writeRaw(zw, jb+"log.txt", lb.Bytes()); err != nil {
							return err
						}
					}
					events, err := s.store.ListEvents(tx, j.ID)
					if err != nil {
						return err
					}
					if err := writeJSON(zw, jb+"timeline.json", events); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeJSON(zw *zip.Writer, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("core: archive %s: %w", name, err)
	}
	return writeRaw(zw, name, data)
}

func writeRaw(zw *zip.Writer, name string, data []byte) error {
	w, err := zw.Create(name)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadProjectArchive parses an export produced by ExportProject.
func ReadProjectArchive(data []byte) (*ProjectArchive, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("core: open archive: %w", err)
	}
	arch := &ProjectArchive{}
	evals := map[string]*EvaluationArchive{}
	jobs := map[string]*JobArchive{}

	// jobDir extracts evaluation and job ids from an archive path of the
	// form evaluations/<eid>/jobs/<jid>/<file>.
	readAll := func(f *zip.File) ([]byte, error) {
		rc, err := f.Open()
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		return io.ReadAll(rc)
	}

	for _, f := range zr.File {
		data, err := readAll(f)
		if err != nil {
			return nil, fmt.Errorf("core: archive read %s: %w", f.Name, err)
		}
		var evalID, jobID, file string
		if hasPrefix(f.Name, "evaluations/") {
			parts := splitPath(f.Name)
			if len(parts) >= 3 {
				evalID = parts[1]
				if len(parts) >= 5 && parts[2] == "jobs" {
					jobID = parts[3]
					file = parts[4]
				} else {
					file = parts[len(parts)-1]
				}
			}
		}
		switch {
		case f.Name == "project.json":
			arch.Project = &Project{}
			if err := json.Unmarshal(data, arch.Project); err != nil {
				return nil, err
			}
		case hasPrefix(f.Name, "systems/"):
			var sys System
			if err := json.Unmarshal(data, &sys); err != nil {
				return nil, err
			}
			arch.Systems = append(arch.Systems, &sys)
		case hasPrefix(f.Name, "experiments/"):
			var exp Experiment
			if err := json.Unmarshal(data, &exp); err != nil {
				return nil, err
			}
			arch.Experiments = append(arch.Experiments, &exp)
		case evalID != "" && jobID == "" && file == "evaluation.json":
			var ev Evaluation
			if err := json.Unmarshal(data, &ev); err != nil {
				return nil, err
			}
			ea := &EvaluationArchive{Evaluation: &ev}
			evals[evalID] = ea
			arch.Evaluations = append(arch.Evaluations, ea)
		case jobID != "":
			ja := jobs[jobID]
			if ja == nil {
				ja = &JobArchive{}
				jobs[jobID] = ja
				if ea := evals[evalID]; ea != nil {
					ea.Jobs = append(ea.Jobs, ja)
				}
			}
			switch file {
			case "job.json":
				ja.Job = &Job{}
				if err := json.Unmarshal(data, ja.Job); err != nil {
					return nil, err
				}
			case "result.json":
				if ja.Result == nil {
					ja.Result = &Result{}
				}
				ja.Result.JSON = data
			case "result.zip":
				if ja.Result == nil {
					ja.Result = &Result{}
				}
				ja.Result.Archive = data
			case "log.txt":
				ja.Log = string(data)
			case "timeline.json":
				if err := json.Unmarshal(data, &ja.Timeline); err != nil {
					return nil, err
				}
			}
		}
	}
	if arch.Project == nil {
		return nil, fmt.Errorf("core: archive has no project.json")
	}
	return arch, nil
}

func splitPath(p string) []string {
	var parts []string
	cur := ""
	for i := 0; i < len(p); i++ {
		if p[i] == '/' {
			parts = append(parts, cur)
			cur = ""
			continue
		}
		cur += string(p[i])
	}
	if cur != "" {
		parts = append(parts, cur)
	}
	return parts
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
