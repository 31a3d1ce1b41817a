//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// The twin is the benchmark's own bare counterpart of what a workload
// does, and the yardstick of every gated metric. The sandbox is a few
// cores of a shared host: neighbours take the CPU away (steal of 40-60 %
// was measured) and make fsync and cross-CPU wake-ups slower for minutes
// at a time, so the same code runs between 1x and 5x slower from one run
// to the next, and no wall-clock number of a 10 s run holds a bound. The
// twin suffers the same weather. Every closed-loop client therefore
// alternates on a common clock between the workload (phaseWork) and twin
// jobs (phaseTwin), and the gated metrics are ratios of the two: the raw
// job round trip moved by 30-37 % between runs where the ratio moved by
// 4 % (README, "Why ratios").
//
// A twin job is four durable calls to the twin server: this binary
// started as a second process (twinEnv), a net/http server whose handler
// decodes a JSON request, does pad rounds of twinWork, appends 256 bytes
// to a file, fsyncs, and encodes a JSON answer — the skeleton of a
// Chronos control-plane call (Go HTTP stack on both sides, JSON, a
// cross-process wake-up, one fsync) without Chronos. The padding makes
// the twin job cost about what a no-op job costs at the commit that
// introduced the benchmark, which is what keeps the ratio flat when the
// weather hits system calls and user code differently (measured with
// paddings 0 to 60: README).
const (
	twinEnv = "CHRONOS_BENCH_TWIN" // "addr,dir": run as the twin server

	phaseWork = 200 * time.Millisecond
	phaseTwin = 100 * time.Millisecond

	twinCalls     = 4  // durable calls per twin job, like claim, log, progress, complete
	twinPadServer = 20 // twinWork rounds per call in the server
	twinPadClient = 10 // and in the client

	// The set-up twin is setupTwinCalls calls of setupTwinPad rounds:
	// CPU-heavy server work with a commit each, like the sweep
	// submissions that make up most of a set-up.
	setupTwinCalls = 16
	setupTwinPad   = 1200

	// computeTwinRounds is the compute twin of eval_heavy: this many
	// rounds of twinWork on each of nproc goroutines, no I/O.
	computeTwinRounds = 15000

	// setupTwinNominal is what the set-up twin takes on the quiet 2-vCPU
	// sandbox. setup_s is the measured set-up time times
	// setupTwinNominal / (the set-up twin's time measured right after it):
	// seconds on the quiet sandbox, whatever the weather.
	setupTwinNominal = 150 * time.Millisecond
)

// inTwinPhase reports whether a client should be running twin jobs now.
func inTwinPhase(origin, now time.Time) bool {
	return now.Sub(origin)%(phaseWork+phaseTwin) >= phaseWork
}

type twinDoc struct {
	ID      string            `json:"id"`
	Status  string            `json:"status"`
	Attempt int               `json:"attempt"`
	Params  map[string]int64  `json:"params"`
	Labels  map[string]string `json:"labels"`
	Log     []string          `json:"log"`
}

// twinWork is n rounds of the user-space work a control-plane call is
// made of: encode a job-like document, decode it, index it.
func twinWork(n int, id string, index map[string]*twinDoc) {
	doc := twinDoc{
		ID: id, Status: "running", Attempt: 1,
		Params: map[string]int64{"v": 12345, "seed": 7, "threads": 2},
		Labels: map[string]string{"deployment": "deployment-000000001", "system": sysNoop},
		Log:    []string{"noop job " + id + " v=12345"},
	}
	for i := 0; i < n; i++ {
		b, _ := json.Marshal(&doc) // cannot fail: plain maps and strings
		d := new(twinDoc)
		json.Unmarshal(b, d) //nolint:errcheck // decodes what Marshal just wrote
		index[id] = d
		delete(index, id)
	}
}

type twinRequest struct {
	JobID string `json:"jobId"`
	Text  string `json:"text"`
	Pad   int    `json:"pad"`
}

type twinAnswer struct {
	Data struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Seq    int64  `json:"seq"`
	} `json:"data"`
}

// twinServe is the twin server process. It returns only on error.
func twinServe(addr, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "twin.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	var (
		mu    sync.Mutex // one commit at a time, like the store's committer
		seq   int64
		index = map[string]*twinDoc{}
		rec   = make([]byte, 256)
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /call", func(w http.ResponseWriter, r *http.Request) {
		var req twinRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		twinWork(req.Pad, req.JobID, index)
		seq++
		n := seq
		copy(rec, req.JobID)
		_, err := f.Write(rec)
		if err == nil {
			err = f.Sync()
		}
		mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var ans twinAnswer
		ans.Data.ID, ans.Data.Status, ans.Data.Seq = req.JobID, "running", n
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&ans) //nolint:errcheck // the client reports a short answer
	})
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "{}") }) //nolint:errcheck
	return http.ListenAndServe(addr, mux)
}

// startTwin launches this binary as the twin server and waits for it.
func (e *env) startTwin() (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p, err := e.procs.start(exe, filepath.Join(e.out, "twin.log"), "http://"+addr,
		[]string{twinEnv + "=" + addr + "," + filepath.Join(e.work, "twin")})
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(p.url + "/ping")
		if err == nil {
			resp.Body.Close()
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("twin server exited at once (see %s)", p.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("twin server did not answer: %v", err)
		}
	}
}

// twinClient is one connection to the twin server; like the SDK clients
// of the load goroutines it is used by one goroutine only.
type twinClient struct {
	url   string
	hc    *http.Client
	n     int64
	index map[string]*twinDoc
}

func (e *env) newTwinClient() *twinClient {
	return &twinClient{
		url:   e.twin.url,
		hc:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}, Timeout: 30 * time.Second},
		index: map[string]*twinDoc{},
	}
}

func (c *twinClient) call(id string, clientPad, serverPad int) error {
	twinWork(clientPad, id, c.index)
	body, err := json.Marshal(&twinRequest{JobID: id, Text: "noop job " + id, Pad: serverPad})
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.url+"/call", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("twin: %s", resp.Status)
	}
	var ans twinAnswer
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return err
	}
	if ans.Data.ID != id {
		return fmt.Errorf("twin: answered %q for %q", ans.Data.ID, id)
	}
	return nil
}

// job is the twin of one no-op job.
func (c *twinClient) job() error {
	c.n++
	id := fmt.Sprintf("twin-%09d", c.n)
	for i := 0; i < twinCalls; i++ {
		if err := c.call(id, twinPadClient, twinPadServer); err != nil {
			return err
		}
	}
	return nil
}

// setupTwin is the twin of one set-up; it returns how long it took.
func (c *twinClient) setupTwin() (time.Duration, error) {
	start := time.Now()
	for i := 0; i < setupTwinCalls; i++ {
		c.n++
		if err := c.call(fmt.Sprintf("twin-%09d", c.n), 0, setupTwinPad); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// computeTwin is the twin of one simulator job: computeTwinRounds*scale
// rounds of twinWork on each of threads goroutines. It returns the wall
// time.
func computeTwin(threads int, scale float64) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			twinWork(max(1, int(computeTwinRounds*scale)), "twin-compute-"+strconv.Itoa(t), map[string]*twinDoc{})
		}(t)
	}
	wg.Wait()
	return time.Since(start)
}
