//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"chronos/internal/core"
	"chronos/pkg/client"
)

// audit checks the program's outputs after a workload (and again after
// every kill -9 restart): every job whose Complete was acknowledged is
// finished with a retrievable result, no job id was handed out twice,
// and the per-evaluation status counts add up to the jobs submitted.
// resultSample bounds how many acknowledged jobs have their result
// fetched (0 = all of them); the listing checks always cover every job.
// It returns the problems found, empty when the outputs are correct.
func (w *world) audit(leds []*ledger, resultSample int) []string {
	var problems []string
	bad := func(format string, a ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, a...))
		}
	}

	seen := map[string]bool{}
	var acked []string
	for _, l := range leds {
		for _, id := range l.claimed {
			if seen[id] {
				bad("job %s was handed out twice", id)
			}
			seen[id] = true
		}
		for _, a := range l.acked {
			acked = append(acked, a.id)
		}
	}

	status := map[string]core.JobStatus{}
	total := 0
	for _, ev := range w.evals {
		jobs, err := w.admin.EvaluationJobs(ev)
		if err != nil {
			bad("list jobs of %s: %v", ev, err)
			continue
		}
		st, err := w.admin.EvaluationStatus(ev)
		if err != nil {
			bad("status of %s: %v", ev, err)
			continue
		}
		if sum := st.Scheduled + st.Running + st.Finished + st.Aborted + st.Failed; sum != st.Total || st.Total != len(jobs) {
			bad("%s: status counts sum to %d, total %d, listing has %d jobs", ev, sum, st.Total, len(jobs))
		}
		if st.Failed+st.Aborted > 0 {
			bad("%s: %d failed and %d aborted jobs", ev, st.Failed, st.Aborted)
		}
		total += st.Total
		for _, j := range jobs {
			status[j.ID] = j.Status
		}
	}
	if total != w.submitted {
		bad("evaluations hold %d jobs, %d were submitted", total, w.submitted)
	}
	for _, id := range acked {
		if status[id] != core.StatusFinished {
			bad("job %s: Complete was acknowledged but its status is %q", id, status[id])
		}
	}

	check := acked
	if resultSample > 0 && len(check) > resultSample {
		r := rand.New(rand.NewPCG(uint64(w.env.seed), uint64(len(acked))))
		r.Shuffle(len(check), func(i, j int) { check[i], check[j] = check[j], check[i] })
		check = check[:resultSample]
	}
	for _, p := range w.fetchResults(check) {
		bad("%s", p)
	}
	return problems
}

// fetchResults reads the result of every id over C connections and
// reports the ones that are missing or do not parse.
func (w *world) fetchResults(ids []string) []string {
	var (
		mu       sync.Mutex
		problems []string
		wg       sync.WaitGroup
	)
	workers := w.env.clients()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(w.leader.url)
			for i := k; i < len(ids); i += workers {
				if _, _, err := resultDoc(c, ids[i]); err != nil {
					mu.Lock()
					problems = append(problems, err.Error())
					mu.Unlock()
				}
			}
		}(k)
	}
	wg.Wait()
	return problems
}

// resultDoc fetches and decodes one job's uploaded result document; size
// is what the server stores for it (document plus archive).
func resultDoc(c *client.Client, jobID string) (doc map[string]any, size int, err error) {
	res, err := c.JobResult(jobID)
	if err != nil {
		return nil, 0, fmt.Errorf("result of %s: %v", jobID, err)
	}
	if err := json.Unmarshal(res.JSON, &doc); err != nil {
		return nil, 0, fmt.Errorf("result of %s does not parse: %v", jobID, err)
	}
	return doc, len(res.JSON) + len(res.Archive), nil
}
