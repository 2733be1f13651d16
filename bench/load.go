package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clients is how many closed-loop connections drive the read-only
// workloads: the routing workers of the paper's setting, each blocked on one
// path cost at a time. It is fixed, not nproc, so that runs on different
// hosts ask for the same concurrency.
const clients = 2

// newClient returns a client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// fetch sends one request and reads the whole body into buf. The returned
// duration runs from before the request is written until the body is read.
func fetch(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, buf.Bytes())
	}
	return took, nil
}

// queryLoad is the outcome of one closed-loop read phase.
type queryLoad struct {
	lat       []time.Duration // one per OK response
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	kept      map[int][]byte // op index → response body, for the answer check
}

// closedLoop walks in.order with n clients until ctx ends or the sequence
// is exhausted. Clients claim the next index from one counter, so a run
// always executes a prefix of the sequence. A request in flight when ctx
// ends is allowed to finish and counts. Bodies of every keepEvery-th op are
// kept, up to keepMax.
func closedLoop(ctx context.Context, base string, in *inputs, n, keepEvery, keepMax int) queryLoad {
	var next atomic.Int64
	type result struct {
		lat      []time.Duration
		failed   int
		firstErr error
		kept     map[int][]byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			r.kept = make(map[int][]byte)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(in.order) {
					return
				}
				took, err := fetch(client, http.MethodGet, base+in.pool[in.order[i]].url, nil, &buf)
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.lat = append(r.lat, took)
				if i%keepEvery == 0 && i/keepEvery < keepMax {
					r.kept[i] = append([]byte(nil), buf.Bytes()...)
				}
			}
		}(&results[c])
	}
	wg.Wait()
	out := queryLoad{elapsed: time.Since(start), kept: make(map[int][]byte)}
	for _, r := range results {
		out.lat = append(out.lat, r.lat...)
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		for i, b := range r.kept {
			out.kept[i] = b
		}
	}
	out.attempted = len(out.lat) + out.failed
	return out
}

// writeLoad is the outcome of the open-loop ingest phase.
type writeLoad struct {
	ack      []time.Duration // due time → 200, one per acknowledged batch
	late     []time.Duration // the generator's own delay: send time − max(due time, previous ack)
	queued   int             // batches whose due time passed while the previous one was unacknowledged
	failed   int
	firstErr error
	trajs    int // acknowledged
	records  int // acknowledged
}

// openLoopIngest posts one batch every interval, on schedule whether or not
// the server keeps up, and times each from the instant it was due. Batches
// must apply in order, so they share one connection; a slow ack therefore
// delays the next send, and that delay is charged to the next batch.
// Halfway through it asks for a snapshot, as an operator would, without
// pausing the schedule.
func openLoopIngest(ctx context.Context, base string, batches []batch, interval time.Duration) writeLoad {
	var out writeLoad
	client := newClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	var snap sync.WaitGroup
	var snapErr error
	start := time.Now()
	free := start // when the connection became free: the previous ack
	for i, b := range batches {
		due := start.Add(time.Duration(i) * interval)
		select {
		case <-ctx.Done():
			out.failed += len(batches) - i
			if out.firstErr == nil {
				out.firstErr = ctx.Err()
			}
			snap.Wait()
			return out
		case <-time.After(time.Until(due)):
		}
		if free.After(due) {
			out.queued++
			out.late = append(out.late, time.Since(free))
		} else {
			out.late = append(out.late, time.Since(due))
		}
		if _, err := fetch(client, http.MethodPost, base+"/extend", b.body, &buf); err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = err
			}
		} else {
			out.ack = append(out.ack, time.Since(due))
			out.trajs += b.trajs
			out.records += b.records
		}
		free = time.Now()
		if i == len(batches)/2 {
			snap.Add(1)
			go func() {
				defer snap.Done()
				c := newClient()
				defer c.CloseIdleConnections()
				var sb bytes.Buffer
				_, snapErr = fetch(c, http.MethodPost, base+"/snapshot", nil, &sb)
			}()
		}
	}
	snap.Wait()
	if snapErr != nil {
		out.failed++
		if out.firstErr == nil {
			out.firstErr = snapErr
		}
	}
	return out
}

// percentile is the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sorted sorts in place and returns its argument.
func sorted(d []time.Duration) []time.Duration {
	slices.Sort(d)
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
