package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/experiments"
	"proteus/internal/jobspec"
	"proteus/internal/sched"
)

// prepared is a pass's set-up: what a fresh process must build before
// the first request or run can be timed.
type prepared struct {
	in      *serveInputs
	svc     *service // the base serve phase's control plane, listening
	market  []sched.Job
	envTime time.Duration // the serve market environment, built cold
	total   time.Duration
}

// prepare builds the serve schedule and the first control plane, and
// warms the market and cost environments the way a fresh process pays
// for them (the zone environments are cached process-wide after).
func prepare(p *plan, dir string, spans *spanLog) (*prepared, error) {
	start := time.Now()
	in, err := newServeInputs(p.seed, p.serveJobs)
	if err != nil {
		return nil, err
	}
	svc, envTime, err := newService(p, filepath.Join(dir, "wal-base"), spans)
	if err != nil {
		return nil, err
	}
	params := bidbrain.DefaultParams()
	if _, err := experiments.NewEnv(marketConfig(), params); err != nil {
		svc.stop()
		return nil, err
	}
	cfg := costConfig()
	for z := 0; z < cfg.Zones; z++ {
		zcfg := cfg
		zcfg.Seed = cfg.Seed + int64(z)*1_000_003
		if _, err := experiments.NewEnv(zcfg, params); err != nil {
			svc.stop()
			return nil, err
		}
	}
	return &prepared{
		in: in, svc: svc, market: marketMix(p.seed, p.marketJobs),
		envTime: envTime, total: time.Since(start),
	}, nil
}

// setupChildEnv, when set in the environment, makes the process time
// one cold set-up described by its JSON value and exit.
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

type setupSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Dir      string `json:"dir"`
}

// setupTimes is one fresh process's cold set-up.
type setupTimes struct {
	SetupS float64 `json:"setup_s"`
	EnvS   float64 `json:"env_s"`
}

// timeSetup runs the cold set-up in setupSamples fresh processes, one
// after another: in this process the zone environments would already
// be cached after the first.
func timeSetup(p *plan, dir string) ([]setupTimes, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupTimes
	for k := 0; k < setupSamples; k++ {
		spec, err := json.Marshal(setupSpec{p.workload, p.seed, p.seconds, filepath.Join(dir, fmt.Sprintf("setup-%d", k))})
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupChildEnv+"="+string(spec))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		var t setupTimes
		if err := json.Unmarshal(bytes.TrimSpace(stdout), &t); err != nil {
			return nil, fmt.Errorf("set-up process output %q: %w", stdout, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// setupChild is the body of a set-up process.
func setupChild(specJSON string) int {
	var s setupSpec
	if err := json.Unmarshal([]byte(specJSON), &s); err != nil {
		log.Printf("set-up: %v", err)
		return 2
	}
	p, err := newPlan(s.Workload, s.Seed, s.Seconds)
	if err != nil {
		log.Printf("set-up: %v", err)
		return 2
	}
	prep, err := prepare(p, s.Dir, nil)
	if err != nil {
		log.Printf("set-up: %v", err)
		return 1
	}
	if _, err := prep.svc.stop(); err != nil {
		log.Printf("set-up: %v", err)
		return 1
	}
	if err := os.RemoveAll(s.Dir); err != nil {
		log.Printf("set-up: %v", err)
		return 1
	}
	b, err := json.Marshal(setupTimes{SetupS: prep.total.Seconds(), EnvS: prep.envTime.Seconds()})
	if err != nil {
		log.Printf("set-up: %v", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// phaseStats is what a traced pass adds up, per phase, over every stretch
// of work the phase ran.
type phaseStats struct {
	cpu                         map[string]float64 // CPU nanoseconds per bucket
	gcCPU, totalCPU, allocBytes float64
}

// passOut is one pass over the three phases.
type passOut struct {
	in       *serveInputs
	serve    *serveOut
	market   *marketOut
	cost     *costOut
	phases   map[string]*phaseStats // traced passes only
	decodeUs []float64              // traced passes only
}

// runPass runs set-up and the three phases. A non-nil spans makes it a
// traced pass: seams installed, spans and CPU profiles recorded.
//
// After the two paced serves, the recoveries, market runs and cost grids
// take turns, so the median of each samples the host over the whole run:
// on a shared host the same recovery took 39 ms or 77 ms a second apart.
func runPass(p *plan, dir string, spans *spanLog, ck *checks) (*passOut, error) {
	prep, err := prepare(p, dir, spans)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out := &passOut{in: prep.in, phases: map[string]*phaseStats{}, market: &marketOut{}, cost: &costOut{}}
	// stretch runs one unit of a phase's work from a collected heap,
	// under a CPU profile on a traced pass.
	stretch := func(phase string, fn func() error) error {
		runtime.GC()
		var prof *cpuProfile
		if spans != nil {
			if prof, err = startCPUProfile(); err != nil {
				return err
			}
		}
		before := readRuntime()
		err := fn()
		after := readRuntime()
		if prof != nil {
			ns, perr := prof.stop()
			if err == nil {
				err = perr
			}
			ps := out.phases[phase]
			if ps == nil {
				ps = &phaseStats{cpu: map[string]float64{}}
				out.phases[phase] = ps
			}
			for b, v := range ns {
				ps.cpu[b] += v
			}
			ps.gcCPU += after.gcCPU - before.gcCPU
			ps.totalCPU += after.totalCPU - before.totalCPU
			ps.allocBytes += after.allocBytes - before.allocBytes
		}
		if err != nil {
			return fmt.Errorf("%s phase: %w", phase, err)
		}
		return nil
	}
	if err := stretch("serve", func() (err error) {
		out.serve, err = serveRates(p, prep, dir, spans, ck)
		return err
	}); err != nil {
		return nil, err
	}
	rounds := max(p.marketRuns, p.costGrids, 1)
	for r := 0; r < rounds; r++ {
		for k := r; k < p.recoveries; k += rounds {
			if err := stretch("serve", func() error {
				return recoverCheck(p, out.serve, filepath.Join(dir, fmt.Sprintf("wal-recover-%d", k)), spans, ck)
			}); err != nil {
				return nil, err
			}
		}
		if r < p.marketRuns {
			if err := stretch("market", func() error {
				return marketRun(p, prep.market, r, out.market, spans, ck)
			}); err != nil {
				return nil, err
			}
		}
		if r < p.costGrids {
			if err := stretch("cost", func() error {
				return costGrid(p, r, out.cost, spans, ck)
			}); err != nil {
				return nil, err
			}
		}
	}
	if spans != nil {
		out.decodeUs = timeDecode(prep.in)
	}
	return out, nil
}

// serveOut is the serve phase of one pass.
type serveOut struct {
	base, high *servePhaseOut
	image      string        // the crash image directory
	baseWAL    *walProbe     // traced passes only
	handler    *handlerProbe // traced passes only
	recov      []recoveryOut
	bad        int // POSTs that failed, were late past the lead, or were clamped
}

// recoverCheck runs one recovery from the crash image and checks that it
// ends where the uninterrupted base-rate serve did.
func recoverCheck(p *plan, sv *serveOut, dir string, spans *spanLog, ck *checks) error {
	rec, res, err := recoverOnce(p, sv.image, dir, baseSpeedup, len(sv.base.res.Jobs), spans, 0)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	err = sameOutcome(sv.base.res, res)
	if err != nil {
		ck.fail("a recovery differs from the uninterrupted run: %v", err)
	}
	ck.op(err == nil)
	sv.recov = append(sv.recov, rec)
	return nil
}

// serveRates runs the schedule at the base rate, taking the crash image,
// then again on a fresh service at the high rate. Each serve must equal
// a batch Run of the same jobs.
func serveRates(p *plan, prep *prepared, dir string, spans *spanLog, ck *checks) (*serveOut, error) {
	want, err := batchReference(p, prep.in)
	if err != nil {
		prep.svc.stop()
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	out := &serveOut{image: filepath.Join(dir, "crash-image"), baseWAL: prep.svc.walSeam, handler: prep.svc.handler}
	id := spans.begin("serve.base", 0)
	out.base, err = runServePhase(prep.svc, prep.in, baseSpeedup, out.image, spans, id)
	spans.end(id)
	if err != nil {
		return nil, err
	}
	out.bad += checkServe(ck, "base rate", out.base, want, prep.in, baseSpeedup)

	highSpeedup := baseSpeedup * highRate / baseRate
	svc, _, err := newService(p, filepath.Join(dir, "wal-high"), spans)
	if err != nil {
		return nil, err
	}
	id = spans.begin("serve.high", 0)
	out.high, err = runServePhase(svc, prep.in, highSpeedup, "", spans, id)
	spans.end(id)
	if err != nil {
		return nil, err
	}
	out.bad += checkServe(ck, "high rate", out.high, want, prep.in, highSpeedup)
	return out, nil
}

// checkServe checks one serve of the schedule and counts its POSTs;
// it returns how many went wrong.
func checkServe(ck *checks, label string, out *servePhaseOut, want *sched.Result, in *serveInputs, speedup float64) int {
	leadMs := float64(arrivalLead) / speedup / float64(time.Millisecond)
	clamped := clampedArrivals(out.res, in)
	bad, failed, late := 0, 0, 0
	for i := range out.gen.failed {
		switch {
		case out.gen.failed[i]:
			failed++
		case out.gen.lateMs[i] > leadMs:
			late++
		default:
			ck.op(true)
			continue
		}
		ck.op(false)
		bad++
	}
	if failed > 0 {
		ck.fail("serve %s: %d of %d POSTs were not accepted", label, failed, len(out.gen.failed))
	}
	if late > 0 {
		ck.fail("serve %s: the generator fell behind by more than the %.0f ms lead on %d POSTs", label, leadMs, late)
	}
	if clamped > 0 {
		// A clamped arrival is a failed operation even when its POST
		// succeeded: the scheduler ran different inputs.
		ck.fail("serve %s: %d arrivals were clamped forward", label, clamped)
		ck.failed += clamped
		bad += clamped
	}
	if err := sameOutcome(want, out.res); err != nil {
		ck.fail("serve %s differs from a batch Run of the same jobs: %v", label, err)
	}
	return bad
}

// timeDecode times jobspec.Decode plus Validate on every sent body.
func timeDecode(in *serveInputs) []float64 {
	us := make([]float64, 0, len(in.bodies))
	for _, b := range in.bodies {
		start := time.Now()
		entries, err := jobspec.Decode(bytes.NewReader(b))
		if err == nil {
			err = jobspec.Validate(entries)
		}
		d := time.Since(start)
		if err == nil {
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
	}
	return us
}
