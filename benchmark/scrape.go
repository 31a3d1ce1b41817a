//go:build linux

package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// promText is one scrape of a server's /metrics: series (name plus label
// set, verbatim) to value. The benchmark parses the exposition itself —
// it needs only "series value" lines — so it does not depend on the
// registry package's types.
type promText map[string]float64

func parseProm(text string) promText {
	out := promText{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of the family name, whatever its labels.
func (p promText) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if fam, _, _ := strings.Cut(k, "{"); fam == name {
			s += v
		}
	}
	return s
}

// snap is the state of the processes at one edge of the measured window.
type snap struct {
	at        time.Time
	leaderCPU time.Duration
	follCPU   time.Duration
	twinCPU   time.Duration // the twin server's
	selfCPU   time.Duration
	leader    promText
	// stolen and total are /proc/stat's steal column and the sum of all
	// its columns, in clock ticks.
	stolen, total float64
}

func (w *world) snap() snap {
	s := snap{at: time.Now(), selfCPU: selfCPU()}
	s.stolen, s.total = stealTicks()
	s.leaderCPU, _ = cpuTime(w.leader.pid())
	s.twinCPU, _ = cpuTime(w.env.twin.pid())
	if text, err := w.admin.MetricsText(); err == nil {
		s.leader = parseProm(text)
	}
	if w.foll != nil {
		s.follCPU, _ = cpuTime(w.foll.pid())
	}
	return s
}

// counterMetrics turns the counter deltas between two snapshots into the
// per-layer metrics sourced from the child's /metrics (M) and from /proc
// and the data directory (P). jobs is the number of jobs finished inside
// the window and twinJobs the number of twin jobs (0 on eval_heavy, whose
// twin is not the twin server).
func (w *world) counterMetrics(a, b snap, jobs, twinJobs int, vals values) {
	d := func(name string) float64 { return b.leader.sum(name) - a.leader.sum(name) }
	j := float64(jobs)
	reqs := d("chronos_http_requests_total")
	commits := d("chronos_store_commits_total")
	fsyncs := d("chronos_store_wal_fsyncs_total")
	vals.set("rest.requests_per_job", reqs/j, int(reqs))
	vals.set("relstore.wal.commits_per_job", commits/j, int(commits))
	vals.set("relstore.wal.fsyncs_per_job", fsyncs/j, int(fsyncs))
	vals.set("relstore.wal.commits_per_fsync", commits/fsyncs, int(fsyncs))
	comps := d("chronos_store_compactions_total")
	vals.set("relstore.wal.compactions", comps, int(comps))
	if comps > 0 {
		vals.set("relstore.wal.compaction_p50_ms", 1000*b.leader[`chronos_store_compaction_seconds{quantile="0.5"}`], int(comps))
	}
	vals.set("server_cpu_ms_per_job", ms(b.leaderCPU-a.leaderCPU)/j, jobs)
	vals.set("loadgen.cpu_ms_per_job", ms(b.selfCPU-a.selfCPU)/j, jobs)
	if w.foll != nil {
		vals.set("repl.follower_cpu_ms_per_job", ms(b.follCPU-a.follCPU)/j, jobs)
	}
	if twinJobs > 0 {
		// What the servers of a job cost in CPU time against what the twin
		// server's cost for a twin job: each works in its own phases only.
		twin := ms(b.twinCPU-a.twinCPU) / float64(twinJobs)
		vals.set("twin.server_cpu_ms_per_job", twin, twinJobs)
		vals.set("cpu_per_job_x", ms(b.leaderCPU-a.leaderCPU+b.follCPU-a.follCPU)/j/twin, jobs)
	}
}

// endMetrics reads the leader's size once the workload is over: rows
// resident, bytes on disk (snapshot plus WAL segments), peak RSS.
func (w *world) endMetrics(vals values) {
	if text, err := w.admin.MetricsText(); err == nil {
		vals.set("relstore.rows_end", parseProm(text)["chronos_store_rows"], 1)
	}
	vals.set("relstore.wal.disk_bytes_end", float64(dirBytes(filepath.Join(w.dir, "leader"))), 1)
	vals.set("control.rss_peak_mb", rssPeakMB(w.leader.pid()), 1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stealTicks reads /proc/stat's first line: the clock ticks the
// hypervisor took away since boot (the steal column; 0 where the kernel
// has none) and the ticks of all columns together. The difference of two
// readings gives the share stolen over an interval.
func stealTicks() (stolen, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user.
	for i, s := range f[1:min(len(f), 9)] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

// stealShare is the share of CPU time stolen between two snapshots.
func stealShare(a, b snap) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.stolen - a.stolen) / (b.total - a.total)
}
