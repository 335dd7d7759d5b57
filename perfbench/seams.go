package main

// Outside-in seams for the traced run. Each wraps an interface the
// program already accepts (wal.Writer, sched.Policy, the per-job
// elasticity hooks, http.Handler) and times or counts the calls that
// cross it; nothing inside the program changes. Spans recorded here
// stay in memory until the run writes them out.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"proteus/internal/journal"
	"proteus/internal/sched"
	"proteus/internal/wal"
)

// span is one timed interval of the benchmark's own calls into a layer.
// Spans of one request share its Request number.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request int    `json:"request,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory. A nil *spanLog records nothing, so
// untraced runs pay only a nil check.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span now and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartNs: time.Since(l.origin).Nanoseconds()})
	return len(l.spans)
}

// end closes a span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNs = time.Since(l.origin).Nanoseconds()
}

// add records a finished span and returns its ID (0 on a nil log).
func (l *spanLog) add(name string, parent, request int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Request: request,
		StartNs: start.Sub(l.origin).Nanoseconds(), EndNs: end.Sub(l.origin).Nanoseconds(),
	})
	return id
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// walProbe times every Append and Sync crossing the wal.Writer seam and
// counts the bytes each record puts on disk (its checksummed frame).
type walProbe struct {
	wal.Writer
	mu       sync.Mutex
	appendUs []float64
	syncMs   []float64
	bytes    int64
}

func (w *walProbe) Append(r wal.Record) (uint64, error) {
	start := time.Now()
	seq, err := w.Writer.Append(r)
	d := time.Since(start)
	// The frame is "%08x " + the JSON line + "\n"; re-encoding happens
	// after the timed call.
	r.Seq = seq
	line, _ := journal.MarshalLine(r)
	w.mu.Lock()
	w.appendUs = append(w.appendUs, float64(d.Nanoseconds())/1e3)
	w.bytes += int64(len(line) + 10)
	w.mu.Unlock()
	return seq, err
}

func (w *walProbe) Sync() error {
	start := time.Now()
	err := w.Writer.Sync()
	d := time.Since(start)
	w.mu.Lock()
	w.syncMs = append(w.syncMs, float64(d.Nanoseconds())/1e6)
	w.mu.Unlock()
	return err
}

// policyProbe times the placement policy's Shares calls.
type policyProbe struct {
	sched.Policy
	mu sync.Mutex
	us []float64
}

func (p *policyProbe) Shares(now time.Duration, reqs []sched.ShareRequest, total int) []int {
	start := time.Now()
	out := p.Policy.Shares(now, reqs, total)
	d := time.Since(start)
	p.mu.Lock()
	p.us = append(p.us, float64(d.Nanoseconds())/1e3)
	p.mu.Unlock()
	return out
}

// hookCounter counts the broker's lease changes through the per-job
// elasticity hooks. The hooks run on the simulation goroutine.
type hookCounter struct{ grows, shrinks int }

func (h *hookCounter) forJob(sched.Job) sched.ElasticHooks { return hookAdapter{h} }

type hookAdapter struct{ c *hookCounter }

func (a hookAdapter) Grow(int) error   { a.c.grows++; return nil }
func (a hookAdapter) Shrink(int) error { a.c.shrinks++; return nil }

// requestHeader carries the generator's request number so the handler
// seam can pair its timing with the client's.
const requestHeader = "X-Perfbench-Request"

// handlerProbe times POST /v1/jobs inside the server's http.Handler.
type handlerProbe struct {
	h     http.Handler
	spans *spanLog
	mu    sync.Mutex
	ms    map[int]float64 // request number → handler milliseconds
}

func (p *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := strconv.Atoi(r.Header.Get(requestHeader))
	if err != nil {
		p.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	p.h.ServeHTTP(w, r)
	end := time.Now()
	p.spans.add("server.handler", 0, req, start, end)
	p.mu.Lock()
	p.ms[req] = float64(end.Sub(start).Nanoseconds()) / 1e6
	p.mu.Unlock()
}
