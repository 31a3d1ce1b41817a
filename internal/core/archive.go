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

// ExportProject renders the complete archive zip of a project. Every row
// it holds is read in one View, so the archive is one consistent cut: a
// job finishing mid-export can never yield a zip whose job.json still says
// running while result.json already exists. The View only takes the rows,
// and the file names come from their key columns; building, encoding,
// indenting and deflating — nearly all of an export's time — happen after
// it, so agents' commits (and a follower's applies) do not wait for the
// zip.
func (s *Service) ExportProject(projectID string) ([]byte, error) {
	var files []archiveFile // in archive order
	err := s.store.db.View(func(tx *relstore.Tx) error {
		p, err := tx.Peek(tableProjects, projectID)
		if err != nil {
			return mapNotFound(err)
		}
		files = append(files, entityFile("project.json", p, fromData[Project](tableProjects)))
		seenSystems := map[string]bool{}
		return eachRow(tx, tableExperiments, relstore.NewQuery().Eq("projectId", projectID), func(exp relstore.Row) error {
			files = append(files, entityFile("experiments/"+exp["id"].(string)+".json", exp, fromData[Experiment](tableExperiments)))
			if sysID := exp["systemId"].(string); !seenSystems[sysID] {
				seenSystems[sysID] = true
				sys, err := tx.Peek(tableSystems, sysID)
				if err != nil {
					return err
				}
				files = append(files, entityFile("systems/"+sysID+".json", sys, fromData[System](tableSystems)))
			}
			return eachRow(tx, tableEvaluations, relstore.NewQuery().Eq("experimentId", exp["id"]), func(ev relstore.Row) error {
				base := "evaluations/" + ev["id"].(string) + "/"
				files = append(files, entityFile(base+"evaluation.json", ev, fromData[Evaluation](tableEvaluations)))
				return eachRow(tx, tableJobs, relstore.NewQuery().Eq("evaluationId", ev["id"]), func(job relstore.Row) error {
					more, err := s.jobFiles(tx, base, job)
					files = append(files, more...)
					return err
				})
			})
		})
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, write := range files {
		if err := write(zw); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// archiveFile writes one file of an export — or, for a result, the two or
// none its row holds — from bytes taken in the export's View.
type archiveFile func(*zip.Writer) error

// jobFiles takes one job's rows inside tx: the job, its result, its log
// chunks and its timeline, under base/jobs/<id>/.
func (s *Service) jobFiles(tx *relstore.Tx, base string, job relstore.Row) ([]archiveFile, error) {
	jobID := job["id"].(string)
	dir := base + "jobs/" + jobID + "/"
	files := []archiveFile{entityFile(dir+"job.json", job, jobOf)}
	if row, err := tx.Peek(tableResults, jobID); err == nil {
		files = append(files, func(zw *zip.Writer) error {
			var res Result
			resultOf(row, &res)
			if err := writeRaw(zw, dir+"result.json", res.JSON); err != nil || len(res.Archive) == 0 {
				return err
			}
			return writeRaw(zw, dir+"result.zip", res.Archive)
		})
	}
	logs, err := s.store.ListLogs(tx, jobID)
	if err != nil {
		return nil, err
	}
	events, err := s.store.ListEvents(tx, jobID)
	if err != nil {
		return nil, err
	}
	return append(files, func(zw *zip.Writer) error {
		chunks, err := logs.build()
		if err != nil || len(chunks) == 0 {
			return err
		}
		var lb bytes.Buffer
		for _, c := range chunks {
			lb.WriteString(c.Text)
		}
		return writeRaw(zw, dir+"log.txt", lb.Bytes())
	}, func(zw *zip.Writer) error {
		return writeJSON(zw, dir+"timeline.json", events)
	}), nil
}

// entityFile is the archive file of the entity a row holds, built by from
// and indented when the zip is written.
func entityFile[T any](name string, row relstore.Row, from func(relstore.Row, *T) error) archiveFile {
	return func(zw *zip.Writer) error {
		var v T
		if err := from(row, &v); err != nil {
			return err
		}
		return writeJSON(zw, name, &v)
	}
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
