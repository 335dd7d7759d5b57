package main

// The serve phase: the HTTP control plane end to end with a durable WAL
// (ROADMAP path 1), then crash recovery from a fixed image (path 3).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/experiments"
	"proteus/internal/obs"
	"proteus/internal/sched"
	"proteus/internal/server"
	"proteus/internal/wal"
)

// service is one control plane as `proteus -serve -wal-dir` runs it:
// market environment, WAL, scheduler, observer, and the HTTP server on
// a loopback port, with the paced Serve loop started separately.
type service struct {
	dir      string
	url      string
	sc       *sched.Scheduler
	srv      *server.Server
	hs       *http.Server
	wlog     wal.Writer
	walSeam  *walProbe     // traced runs only
	handler  *handlerProbe // traced runs only
	httpDone chan error
	cancel   context.CancelFunc
	served   chan serveResult
}

type serveResult struct {
	res *sched.Result
	err error
}

// newService creates a fresh log in dir and brings the control plane up
// on a loopback port. It returns how long the market environment took
// to build.
func newService(p *plan, dir string, spans *spanLog) (*service, time.Duration, error) {
	cfg := serveConfig()
	o := obs.NewObserver(nil)
	cfg.Observer = o
	envStart := time.Now()
	env, err := experiments.NewEnv(cfg, bidbrain.DefaultParams())
	if err != nil {
		return nil, 0, err
	}
	envTime := time.Since(envStart)
	o.SetClock(env.Engine.Now)

	meta := wal.Meta{
		Seed: cfg.Seed, EvalDays: cfg.EvalDays, TrainDays: cfg.TrainDays,
		BetaSamples: cfg.BetaSamples, Zones: cfg.Zones, Policy: sched.FairShare{}.Name(),
		Shards: p.shards, WALShards: p.shards,
	}
	var wlog wal.Writer
	if p.shards > 1 {
		wlog, err = wal.CreateSharded(dir, meta, p.shards, wal.Options{})
	} else {
		wlog, err = wal.Create(dir, meta, wal.Options{})
	}
	if err != nil {
		return nil, 0, err
	}
	s := &service{dir: dir, wlog: wlog}
	scfg := experiments.SchedConfig(env.Brain, sched.FairShare{})
	scfg.Observer = o
	scfg.Shards = p.shards
	scfg.WAL = wlog
	if spans != nil {
		s.walSeam = &walProbe{Writer: wlog}
		scfg.WAL = s.walSeam
	}
	sc, err := sched.New(env.Engine, env.Market, scfg)
	if err != nil {
		wlog.Close()
		return nil, 0, err
	}
	if err := s.listen(sc, o, spans); err != nil {
		wlog.Close()
		return nil, 0, err
	}
	return s, envTime, nil
}

// listen mounts the control plane on a fresh loopback listener.
func (s *service) listen(sc *sched.Scheduler, o *obs.Observer, spans *spanLog) error {
	srv, err := server.New(server.Config{Scheduler: sc, Observer: o})
	if err != nil {
		return err
	}
	var h http.Handler = srv
	if spans != nil {
		s.handler = &handlerProbe{h: srv, spans: spans, ms: make(map[int]float64)}
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	s.sc, s.srv = sc, srv
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	s.httpDone = make(chan error, 1)
	go func() { s.httpDone <- s.hs.Serve(ln) }()
	return nil
}

// start runs the paced Serve loop in the background.
func (s *service) start(speedup float64) {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.served = make(chan serveResult, 1)
	go func() {
		res, err := s.sc.Serve(ctx, sched.ServeConfig{Speedup: speedup})
		s.served <- serveResult{res, err}
	}()
}

// stop drains the scheduler (when started), shuts the HTTP server, and
// closes the log, in the order runServe uses.
func (s *service) stop() (*sched.Result, error) {
	var r serveResult
	if s.cancel != nil {
		s.cancel()
		r = <-s.served
	}
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	if err := <-s.httpDone; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	werr := s.wlog.Close()
	return r.res, errors.Join(r.err, herr, werr)
}

// genOut is what the open-loop generator measured, per POST.
type genOut struct {
	submitMs []float64 // due → response
	clientMs []float64 // send → response
	lateMs   []float64 // due → send
	failed   []bool    // not accepted with 202
}

// generate POSTs every job at its due instant from a single process
// with generatorConns connections: an open loop, so a stalled server
// delays later sends and that wait counts in their latency.
func generate(url string, in *serveInputs, speedup float64, spans *spanLog, parent int) genOut {
	const conns = generatorConns
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	n := len(in.bodies)
	out := genOut{
		submitMs: make([]float64, n), clientMs: make([]float64, n),
		lateMs: make([]float64, n), failed: make([]bool, n),
	}
	start := time.Now()
	dueAt := func(i int) time.Time {
		return start.Add(time.Duration(float64(in.due[i]-in.due[0]) / speedup))
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				due := dueAt(i)
				sent := time.Now()
				ok := post(hc, url+"/v1/jobs", in.bodies[i], i+1)
				done := time.Now()
				out.submitMs[i] = msSince(due, done)
				out.clientMs[i] = msSince(sent, done)
				out.lateMs[i] = msSince(due, sent)
				out.failed[i] = !ok
				spans.add("client.submit", parent, i+1, sent, done)
			}
		}()
	}
	for i := range in.bodies {
		if d := time.Until(dueAt(i)); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

func post(hc *http.Client, url string, body []byte, request int) bool {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestHeader, strconv.Itoa(request))
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusAccepted
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from).Nanoseconds()) / 1e6 }

// servePhaseOut is one paced serve of the whole schedule.
type servePhaseOut struct {
	gen        genOut
	res        *sched.Result
	walAppends uint64 // at the crash point: all jobs terminal, before the drain
	walSyncs   uint64
	// Traced runs only.
	lockMs      []float64 // Scheduler.Stats() latency from the fixed-interval probe
	paceLagMaxS float64
}

// generatorConns is the generator's connection count. Serve gives a live
// submission the next running-set slot in the order Submit sees it,
// where a batch Run slots by job ID, so that order is an input of the
// run. With two connections, two POSTs can reach Submit out of ID
// order depending on wall timing, and the makespan then differed from
// the batch run's (README.md). One connection keeps the order, and with
// it every run's inputs, fixed.
const generatorConns = 1

// lockProbeEvery is the fixed interval of the sched.mu probe.
const lockProbeEvery = 5 * time.Millisecond

// runServePhase drives svc with the whole schedule at one speedup, waits
// for every job to reach a terminal state, copies the WAL directory to
// image (when set) as the crash image, and drains.
func runServePhase(svc *service, in *serveInputs, speedup float64, image string, spans *spanLog, parent int) (*servePhaseOut, error) {
	out := &servePhaseOut{}
	svc.start(speedup)
	var probeWG sync.WaitGroup
	stopProbe := make(chan struct{})
	if spans != nil {
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			out.lockMs, out.paceLagMaxS = probeLock(svc.sc, speedup, stopProbe)
		}()
	}
	out.gen = generate(svc.url, in, speedup, spans, parent)
	close(stopProbe)
	probeWG.Wait()

	waitStart := time.Now()
	if err := waitTerminal(svc.sc, len(in.jobs), time.Minute); err != nil {
		svc.stop()
		return nil, err
	}
	if image != "" {
		// Everything appended so far reaches disk, then the directory
		// is copied as it stands: the image a crash here would leave.
		if err := svc.sc.SyncWAL(); err != nil {
			svc.stop()
			return nil, err
		}
		if err := copyTree(svc.dir, image); err != nil {
			svc.stop()
			return nil, err
		}
	}
	st := svc.wlog.Stats()
	out.walAppends, out.walSyncs = st.Appends, st.Syncs
	spans.add("serve.settle", parent, 0, waitStart, time.Now())
	res, err := svc.stop()
	if err != nil {
		return nil, err
	}
	out.res = res
	return out, nil
}

// probeLock calls Scheduler.Stats() — which takes sched.mu, as every
// API call does — at a fixed interval, and tracks how far the virtual
// clock falls behind the pace since it started moving.
func probeLock(sc *sched.Scheduler, speedup float64, stop <-chan struct{}) (ms []float64, lagMaxS float64) {
	tick := time.NewTicker(lockProbeEvery)
	defer tick.Stop()
	var origin time.Time
	var originNow time.Duration
	for {
		select {
		case <-stop:
			return ms, lagMaxS
		case <-tick.C:
		}
		t := time.Now()
		st := sc.Stats()
		ms = append(ms, msSince(t, time.Now()))
		if st.Now <= 0 {
			continue
		}
		if origin.IsZero() {
			origin, originNow = t, st.Now
			continue
		}
		want := time.Duration(float64(t.Sub(origin)) * speedup)
		lag := float64(want-(st.Now-originNow)) / speedup / float64(time.Second)
		if lag > lagMaxS {
			lagMaxS = lag
		}
	}
}

// waitTerminal polls until n jobs are done or expired.
func waitTerminal(sc *sched.Scheduler, n int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st := sc.Stats()
		if st.Jobs >= n && st.Done+st.Expired >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: %d of %d jobs terminal after %v", st.Done+st.Expired, n, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clampedArrivals counts jobs whose effective arrival differs from the
// one requested: Submit moved them forward because the pacer had
// already passed the requested instant.
func clampedArrivals(res *sched.Result, in *serveInputs) int {
	want := make(map[int]time.Duration, len(in.jobs))
	for _, j := range in.jobs {
		want[j.ID] = j.Arrival
	}
	n := 0
	for _, jr := range res.Jobs {
		if a, ok := want[jr.Job.ID]; !ok || a != jr.Job.Arrival {
			n++
		}
	}
	return n
}

// batchReference runs the same jobs through a batch sched.Run: what
// Serve must reproduce exactly.
func batchReference(p *plan, in *serveInputs) (*sched.Result, error) {
	env, err := experiments.NewEnv(serveConfig(), bidbrain.DefaultParams())
	if err != nil {
		return nil, err
	}
	scfg := experiments.SchedConfig(env.Brain, sched.FairShare{})
	scfg.Shards = p.shards
	sc, err := sched.New(env.Engine, env.Market, scfg)
	if err != nil {
		return nil, err
	}
	for _, j := range in.jobs {
		if err := sc.Submit(j); err != nil {
			return nil, err
		}
	}
	return sc.Run()
}

// sameOutcome reports the first difference between two runs' bills,
// makespans and per-job terminal states.
func sameOutcome(want, got *sched.Result) error {
	if got == nil {
		return fmt.Errorf("no result")
	}
	if len(got.Jobs) != len(want.Jobs) {
		return fmt.Errorf("%d jobs, want %d", len(got.Jobs), len(want.Jobs))
	}
	for i, w := range want.Jobs {
		if g := got.Jobs[i]; g.Job.ID != w.Job.ID || g.State != w.State {
			return fmt.Errorf("job %d ended %v, want job %d %v", g.Job.ID, g.State, w.Job.ID, w.State)
		}
	}
	if got.TotalCost != want.TotalCost || got.Makespan != want.Makespan {
		return fmt.Errorf("bill $%.6f makespan %v, want $%.6f makespan %v",
			got.TotalCost, got.Makespan, want.TotalCost, want.Makespan)
	}
	return nil
}

// recoveryOut times one crash-to-serving recovery.
type recoveryOut struct {
	total, walOpen, env, schedRecover, catchup time.Duration
	records                                    int
}

// recoverOnce restores the crash image into dir and times recovery to a
// scheduler whose catch-up is over and whose /v1/stats answers, then
// drains it and returns its result. The zone environment is already
// cached in this process, so env is the warm rebuild; a restarted
// process pays the cold build that set-up reports.
func recoverOnce(p *plan, image, dir string, speedup float64, jobs int, spans *spanLog, parent int) (recoveryOut, *sched.Result, error) {
	var out recoveryOut
	if err := copyTree(image, dir); err != nil {
		return out, nil, err
	}
	t0 := time.Now()
	var wlog wal.Writer
	var replay *wal.Replay
	var err error
	if wal.IsSharded(dir) {
		wlog, replay, err = wal.OpenSharded(dir, wal.Options{})
	} else {
		wlog, replay, err = wal.Open(dir, wal.Options{})
	}
	if err != nil {
		return out, nil, err
	}
	t1 := time.Now()
	// The logged environment wins over the plan, as in runServe.
	cfg := serveConfig()
	cfg.Seed, cfg.EvalDays, cfg.TrainDays = replay.Meta.Seed, replay.Meta.EvalDays, replay.Meta.TrainDays
	cfg.BetaSamples, cfg.Zones = replay.Meta.BetaSamples, replay.Meta.Zones
	o := obs.NewObserver(nil)
	cfg.Observer = o
	env, err := experiments.NewEnv(cfg, bidbrain.DefaultParams())
	if err != nil {
		wlog.Close()
		return out, nil, err
	}
	o.SetClock(env.Engine.Now)
	t2 := time.Now()
	policy, err := sched.PolicyByName(replay.Meta.Policy)
	if err != nil {
		wlog.Close()
		return out, nil, err
	}
	scfg := experiments.SchedConfig(env.Brain, policy)
	scfg.Observer = o
	scfg.Shards = p.shards
	sc, err := sched.Recover(env.Engine, env.Market, scfg, replay, wlog)
	if err != nil {
		wlog.Close()
		return out, nil, err
	}
	t3 := time.Now()
	svc := &service{dir: dir, wlog: wlog}
	if err := svc.listen(sc, o, nil); err != nil {
		wlog.Close()
		return out, nil, err
	}
	// The replay emits every job's transitions again; the buffer holds
	// all of a run's events, so none is dropped while the waiter reads.
	sub := sc.Subscribe(1 << 14)
	defer sub.Close()
	svc.start(speedup)
	if err := waitCaughtUp(sub, svc.url, jobs, time.Minute); err != nil {
		svc.stop()
		return out, nil, err
	}
	t4 := time.Now()
	res, err := svc.stop()
	if err != nil {
		return out, nil, err
	}
	out = recoveryOut{
		total: t4.Sub(t0), walOpen: t1.Sub(t0), env: t2.Sub(t1),
		schedRecover: t3.Sub(t2), catchup: t4.Sub(t3), records: replay.Records,
	}
	id := spans.add("recovery", parent, 0, t0, t4)
	spans.add("wal.open", id, 0, t0, t1)
	spans.add("experiments.env", id, 0, t1, t2)
	spans.add("sched.recover", id, 0, t2, t3)
	spans.add("sched.catchup", id, 0, t3, t4)
	return out, res, nil
}

// waitCaughtUp waits until the recovered service has replayed every job
// to its terminal state, then until GET /v1/stats answers with no
// catch-up. It follows the replay on the event stream rather than by
// polling, which would contend for sched.mu with the replay it times.
func waitCaughtUp(sub *sched.Subscription, url string, jobs int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	timeout := time.NewTimer(limit)
	defer timeout.Stop()
	for terminal := 0; terminal < jobs; {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return fmt.Errorf("recovery: event stream ended after %d of %d jobs", terminal, jobs)
			}
			if ev.Kind == sched.EventDone || ev.Kind == sched.EventExpired {
				terminal++
			}
		case <-timeout.C:
			return fmt.Errorf("recovery: %d of %d jobs replayed after %v", terminal, jobs, limit)
		}
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	var last server.Stats
	for time.Now().Before(deadline) {
		st, err := getStats(hc, url)
		if err == nil {
			last = st
			if st.Jobs == jobs && st.Done+st.Expired == jobs && !st.CatchingUp {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("recovery: not caught up after %v (last stats %+v)", limit, last)
}

func getStats(hc *http.Client, url string) (server.Stats, error) {
	var st server.Stats
	resp, err := hc.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// copyTree copies the regular files and directories under src to dst
// and fsyncs every file it writes: a crashed process's log is already
// on disk when recovery starts, so a restored image must be too, or the
// first fsync recovery makes would also flush the copy.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(target, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}
