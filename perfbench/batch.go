package main

// The two batch phases: a month of multi-tenant market time (ROADMAP
// path 2) and the paper's §6 cost grid.

import (
	"fmt"
	"log"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/checkpoint"
	"proteus/internal/core"
	"proteus/internal/experiments"
	"proteus/internal/forecast"
	"proteus/internal/obs"
	"proteus/internal/sched"
)

// marketOut is the market phase's measurements.
type marketOut struct {
	simHoursPerS []float64 // one per run
	bill         float64   // identical on every run
	// Traced runs only (from the first run).
	events     uint64
	eventsPerS float64
	policyUs   []float64
	grows      int
	shrinks    int
	counters   map[string]float64
}

// marketRun runs the tenant mix (run r of the pass) through a batch
// sched.Run over a fresh 30-day market, forecaster on, no HTTP, no WAL,
// and adds the result to out.
func marketRun(p *plan, jobs []sched.Job, r int, out *marketOut, spans *spanLog, ck *checks) error {
	traced := spans != nil
	cfg := marketConfig()
	var o *obs.Observer
	if traced {
		o = countersOnly()
		cfg.Observer = o
	}
	env, err := experiments.NewEnv(cfg, bidbrain.DefaultParams())
	if err != nil {
		return err
	}
	scfg := experiments.SchedConfig(env.Brain, sched.FairShare{})
	scfg.Forecast = forecast.DefaultOptions()
	scfg.Shards = p.shards
	var pol *policyProbe
	var hooks *hookCounter
	if traced {
		scfg.Observer = o
		pol = &policyProbe{Policy: scfg.Policy}
		scfg.Policy = pol
		hooks = &hookCounter{}
		scfg.Hooks = hooks.forJob
	}
	sc, err := sched.New(env.Engine, env.Market, scfg)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if err := sc.Submit(j); err != nil {
			return err
		}
	}
	start := time.Now()
	res, err := sc.Run()
	wall := time.Since(start)
	if err != nil {
		return err
	}
	spans.add("sched.run", 0, 0, start, start.Add(wall))
	ok := true
	for _, jr := range res.Jobs {
		if jr.State != sched.Done && jr.State != sched.Expired {
			ck.fail("market: job %d ended %v at the horizon", jr.Job.ID, jr.State)
			ok = false
			break
		}
	}
	if r == 0 {
		out.bill = res.TotalCost
	} else if res.TotalCost != out.bill {
		ck.fail("market: run %d billed $%.6f, run 0 $%.6f", r, res.TotalCost, out.bill)
		ok = false
	}
	ck.op(ok)
	out.simHoursPerS = append(out.simHoursPerS, res.Makespan.Hours()/wall.Seconds())
	log.Printf("  market run %d: %.0f virtual hours in %.2fs", r, res.Makespan.Hours(), wall.Seconds())
	if traced && r == 0 {
		out.events = env.Engine.Fired()
		out.eventsPerS = float64(out.events) / wall.Seconds()
		out.grows, out.shrinks = hooks.grows, hooks.shrinks
		out.counters = counterTotals(o)
	}
	if traced {
		out.policyUs = append(out.policyUs, pol.us...)
	}
	return nil
}

// costOut is the cost-study phase's measurements.
type costOut struct {
	cellsPerS []float64 // one per grid
	pct       float64   // Proteus cost as % of on-demand, identical on every grid
	// Traced runs only.
	cellMs   map[experiments.SchemeKind][]float64
	counters map[string]float64
}

// costGrid runs experiments.RunSchemes once (grid g of the pass) and adds
// the result to out. A traced pass evaluates the same cells one by one
// through each scheme's public Run instead, timing every cell; the
// answer must be the same.
func costGrid(p *plan, g int, out *costOut, spans *spanLog, ck *checks) error {
	cfg := costConfig()
	cells := len(experiments.AllSchemes()) * cfg.Zones * p.costSamples
	var pct float64
	start := time.Now()
	if spans != nil {
		o := countersOnly()
		var err error
		var cellMs map[experiments.SchemeKind][]float64
		pct, cellMs, err = cellGrid(p, o, spans)
		if err != nil {
			return err
		}
		if g == 0 {
			out.cellMs, out.counters = cellMs, counterTotals(o)
		}
	} else {
		avgs, err := experiments.RunSchemes(cfg, costJobHours, p.costSamples)
		if err != nil {
			return err
		}
		for _, a := range avgs {
			if a.Scheme == experiments.SchemeProteus {
				pct = a.CostPercentOD
			}
		}
	}
	wall := time.Since(start)
	spans.add("cost.grid", 0, 0, start, start.Add(wall))
	if g == 0 {
		out.pct = pct
	}
	same := pct == out.pct
	if !same {
		ck.fail("cost-study: grid %d gave %.6f%% of on-demand, grid 0 %.6f%%", g, pct, out.pct)
	}
	ck.op(same)
	out.cellsPerS = append(out.cellsPerS, float64(cells)/wall.Seconds())
	log.Printf("  cost grid %d: %d cells in %.2fs", g, cells, wall.Seconds())
	return nil
}

// cellGrid evaluates RunSchemes' grid cell by cell, in its order and
// with its arithmetic, timing each scheme's Run.
func cellGrid(p *plan, o *obs.Observer, spans *spanLog) (float64, map[experiments.SchemeKind][]float64, error) {
	cfg := costConfig()
	cfg.Observer = o
	params := bidbrain.DefaultParams()
	// The Fig. 8/9 baseline job: costJobHours on 64 on-demand c4.2xlarge.
	spec := core.JobSpec{
		TargetWork:    params.Phi * 64 * 8 * costJobHours,
		Params:        params,
		ReliableType:  "c4.xlarge",
		ReliableCount: 3,
		MaxSpotCores:  64 * 8 * 3 / 2,
		ChunkCores:    128,
	}
	horizon := time.Duration(cfg.EvalDays)*24*time.Hour - time.Duration(costJobHours*3*float64(time.Hour))
	schemes := experiments.AllSchemes()
	cellMs := make(map[experiments.SchemeKind][]float64, len(schemes))
	mean := make([]float64, len(schemes))
	for si, kind := range schemes {
		for z := 0; z < cfg.Zones; z++ {
			zcfg := cfg
			zcfg.Seed = cfg.Seed + int64(z)*1_000_003 // RunSchemes' per-zone seeds
			for i := 0; i < p.costSamples; i++ {
				env, err := experiments.NewEnv(zcfg, params)
				if err != nil {
					return 0, nil, err
				}
				offset := time.Duration(int64(horizon) / int64(p.costSamples) * int64(i))
				env.Engine.RunUntil(offset)
				start := time.Now()
				res, err := schemeFor(kind, env).Run(env.Engine, env.Market, spec)
				end := time.Now()
				if err != nil {
					return 0, nil, err
				}
				if !res.Completed {
					return 0, nil, fmt.Errorf("cost-study: %v at offset %v did not complete", kind, offset)
				}
				spans.add("core.run", 0, 0, start, end)
				cellMs[kind] = append(cellMs[kind], msSince(start, end))
				mean[si] += res.Cost
			}
		}
	}
	n := float64(cfg.Zones * p.costSamples)
	for si := range mean {
		mean[si] /= n
	}
	return mean[len(mean)-1] / mean[0] * 100, cellMs, nil
}

// schemeFor builds the scheme RunSchemes uses for kind.
func schemeFor(kind experiments.SchemeKind, env *experiments.Env) core.Scheme {
	switch kind {
	case experiments.SchemeOnDemand:
		return core.OnDemandScheme{Type: "c4.2xlarge", Count: 64}
	case experiments.SchemeStandardCheckpoint:
		return core.StandardCheckpointScheme{Policy: checkpoint.DefaultPolicy(), MTTF: 4 * time.Hour}
	case experiments.SchemeStandardAgileML:
		return core.StandardAgileMLScheme{}
	}
	return core.ProteusScheme{Brain: env.Brain}
}

// registryCounters are the obs counters each batch phase reports, by
// per-layer metric name.
var registryCounters = map[string]string{
	"bidbrain.decisions":       "proteus_bidbrain_decisions_total",
	"market.grants":            "proteus_market_grants_total",
	"market.eviction_warnings": "proteus_market_eviction_warnings_total",
	"forecast.updates":         "proteus_forecast_updates_total",
}

// countersOnly is an observer with a metrics registry and no tracer:
// the batch phases' traced runs read counters, not spans.
func countersOnly() *obs.Observer { return &obs.Observer{Metrics: obs.NewRegistry()} }

// counterTotals sums every series of each registry counter.
func counterTotals(o *obs.Observer) map[string]float64 {
	byFamily := make(map[string]float64)
	for _, f := range o.Reg().Snapshot() {
		for _, s := range f.Series {
			byFamily[f.Name] += s.Value
		}
	}
	out := make(map[string]float64, len(registryCounters))
	for metric, family := range registryCounters {
		out[metric] = byFamily[family]
	}
	return out
}
