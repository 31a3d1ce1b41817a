package repl

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/relstore"
)

// BenchmarkFollowerCatchup measures how fast a fresh follower replays a
// leader's history over HTTP: a fixed workload (several thousand
// commits across many sealed segments), then one full bootstrap+tail
// per iteration. Reported as segments/s and MB/s alongside the stock
// ns/op.
func BenchmarkFollowerCatchup(b *testing.B) {
	ldir := b.TempDir()
	db, err := relstore.Open(ldir, &relstore.Options{SegmentBytes: 64 << 10, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(kvSchema()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := db.Update(func(tx *relstore.Tx) error {
			return tx.Put("kv", relstore.Row{"id": fmt.Sprintf("k%06d", i), "n": int64(i)})
		}); err != nil {
			b.Fatal(err)
		}
	}
	pos, _, err := db.ShipPosition()
	if err != nil {
		b.Fatal(err)
	}
	var shipped int64
	for seq := int64(1); seq <= pos.WALSeq; seq++ {
		if fi, err := os.Stat(db.SegmentPath(seq)); err == nil {
			shipped += fi.Size()
		}
	}

	l := &testLeader{dir: ldir, db: db}
	srv := newLeaderServer(l)
	defer srv.Close()
	l.srv = srv

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Start(Config{
			Dir:        b.TempDir(),
			Leader:     srv.URL,
			PollWait:   100 * time.Millisecond,
			RetryEvery: 10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.WaitCaughtUp(ctx); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(pos.WALSeq)/perOp, "segments/s")
	b.ReportMetric(float64(shipped)/(1<<20)/perOp, "MB/s")
}

// BenchmarkLeaderCommitWithFollowers is the replication-lag variant of
// the group-commit bench: 4 concurrent writers commit durably on the
// leader while 0, 1 or 2 followers tail it over HTTP. The p50 commit
// latency must stay within a few percent of the follower-free run —
// shipping reads sealed files and the active segment's durable tail
// outside every commit-path lock, so attached followers cost the leader
// almost nothing.
func BenchmarkLeaderCommitWithFollowers(b *testing.B) {
	for _, followers := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("followers=%d", followers), func(b *testing.B) {
			ldir := b.TempDir()
			db, err := relstore.Open(ldir, &relstore.Options{SegmentBytes: 1 << 20, CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.CreateTable(kvSchema()); err != nil {
				b.Fatal(err)
			}
			l := &testLeader{dir: ldir, db: db}
			srv := newLeaderServer(l)
			defer srv.Close()
			l.srv = srv

			for i := 0; i < followers; i++ {
				f, err := Start(Config{
					Dir:        b.TempDir(),
					Leader:     srv.URL,
					PollWait:   time.Second,
					RetryEvery: 10 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
			}

			const par = 4
			b.ResetTimer()
			var n int64
			var wg sync.WaitGroup
			lats := make([][]time.Duration, par)
			for w := 0; w < par; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						i := atomic.AddInt64(&n, 1)
						if i > int64(b.N) {
							return
						}
						start := time.Now()
						err := db.Update(func(tx *relstore.Tx) error {
							return tx.Put("kv", relstore.Row{"id": fmt.Sprintf("k%d", i%1000), "n": i})
						})
						lats[w] = append(lats[w], time.Since(start))
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			var all []time.Duration
			for _, l := range lats {
				all = append(all, l...)
			}
			reportPercentiles(b, all)
		})
	}
}

// reportPercentiles adds the p50 and p99 of per-operation timings to a
// benchmark's output (ns/op is a mean).
func reportPercentiles(b *testing.B, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(lats[len(lats)/2]), "p50-ns")
	b.ReportMetric(float64(lats[len(lats)*99/100]), "p99-ns")
}

// BenchmarkShipLatency is the read-your-write wait in isolation: one
// writer commits on the leader and, from the moment the commit is
// acknowledged, waits until a live follower has applied it — the wait a
// follower read carrying that commit's X-Chronos-Read-After token parks
// in. Each commit is held back until the follower's next tail request
// has reached the leader, so the request is long-polling when the commit
// becomes durable (back to back, it would queue behind the commit's
// fsync on the WAL lock and never park). An operation is then one
// wake-up of the tail request, one response, one local fsync and one
// apply; any delay the ship path adds on top shows in the p50.
func BenchmarkShipLatency(b *testing.B) {
	tailArrived := make(chan struct{}, 1)
	l := startLeader(b, &relstore.Options{SegmentBytes: 1 << 20, CompactEvery: -1}, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if isTailRequest(r) {
				select {
				case tailArrived <- struct{}{}:
				default:
				}
			}
			next.ServeHTTP(w, r)
		})
	})
	db := l.DB()
	if err := db.CreateTable(kvSchema()); err != nil {
		b.Fatal(err)
	}
	f, err := Start(Config{
		Dir:        b.TempDir(),
		Leader:     l.srv.URL,
		PollWait:   time.Second,
		RetryEvery: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := f.WaitCaughtUp(ctx); err != nil {
		b.Fatal(err)
	}

	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		<-tailArrived
		put(b, db, "kv", fmt.Sprintf("k%d", i%1000), int64(i))
		acked := time.Now()
		_, pos, ok := db.ReadPosition()
		if !ok {
			b.Fatal("leader has no commit position")
		}
		if err := f.DB().WaitFollowerApplied(ctx, pos); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(acked))
	}
	b.StopTimer()
	reportPercentiles(b, lats)
}
