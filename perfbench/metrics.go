package main

import (
	"fmt"
	"math"

	"proteus/internal/experiments"
)

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// endToEnd assembles the metrics a user of the system sees, from the
// untraced pass.
func endToEnd(p *plan, plain *passOut, setups []setupTimes, rssMB float64) map[string]metric {
	sv := plain.serve
	var setupS, recoverS []float64
	for _, s := range setups {
		setupS = append(setupS, s.SetupS)
	}
	for _, r := range sv.recov {
		recoverS = append(recoverS, r.total.Seconds())
	}
	posts := len(sv.base.gen.submitMs) + len(sv.high.gen.submitMs)
	return map[string]metric{
		"setup_s":             {median(setupS), "s"},
		"peak_rss_mb":         {rssMB, "MB"},
		"submit_p50_ms":       {quantile(sv.base.gen.submitMs, 0.50), "ms"},
		"submit_p50_ms_high":  {quantile(sv.high.gen.submitMs, 0.50), "ms"},
		"submit_ok_ratio":     {1 - float64(sv.bad)/float64(posts), "ratio"},
		"recover_s":           {median(recoverS), "s"},
		"sim_hours_per_s":     {median(plain.market.simHoursPerS), "h/s"},
		"tenant_usd_per_job":  {plain.market.bill / float64(p.marketJobs), "usd"},
		"cells_per_s":         {median(plain.cost.cellsPerS), "1/s"},
		"proteus_cost_pct_od": {plain.cost.pct, "%"},
	}
}

// phaseNames are the suffixes of the per-phase per-layer metrics.
var phaseNames = []string{"serve", "market", "cost"}

// perLayer assembles the per-layer metrics from the traced pass, plus
// the tracing overhead against the untraced pass.
func perLayer(p *plan, plain, tr *passOut, setups []setupTimes) map[string]metric {
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	sv := tr.serve
	n := float64(len(tr.in.jobs))

	// serve: the submit path, base rate.
	var handlerMs, outsideMs []float64
	sv.handler.mu.Lock()
	for i, client := range sv.base.gen.clientMs {
		if h, ok := sv.handler.ms[i+1]; ok {
			handlerMs = append(handlerMs, h)
			outsideMs = append(outsideMs, client-h)
		}
	}
	sv.handler.mu.Unlock()
	put("server.handler_p50_ms", "ms", quantile(handlerMs, 0.50))
	put("server.handler_p99_ms", "ms", quantile(handlerMs, 0.99))
	put("server.outside_p50_ms", "ms", quantile(outsideMs, 0.50))
	put("jobspec.decode_p50_us", "us", quantile(tr.decodeUs, 0.50))
	w := sv.baseWAL
	w.mu.Lock()
	put("wal.append_p50_us", "us", quantile(w.appendUs, 0.50))
	put("wal.sync_p50_ms", "ms", quantile(w.syncMs, 0.50))
	put("wal.sync_p99_ms", "ms", quantile(w.syncMs, 0.99))
	put("wal.bytes_per_job", "B", float64(w.bytes)/n)
	w.mu.Unlock()
	put("wal.appends_per_job", "count", float64(sv.base.walAppends)/n)
	put("wal.syncs_per_request", "count", float64(sv.base.walSyncs)/n)
	put("sched.mu_probe_p99_ms", "ms", quantile(sv.base.lockMs, 0.99))
	put("sched.pace_lag_max_s", "s", sv.base.paceLagMaxS)
	put("loadgen.late_p99_ms", "ms", quantile(sv.base.gen.lateMs, 0.99))
	put("loadgen.submit_p90_ms", "ms", quantile(sv.base.gen.submitMs, 0.90))
	put("loadgen.submit_p90_ms_high", "ms", quantile(sv.high.gen.submitMs, 0.90))
	put("loadgen.submit_p99_ms", "ms", quantile(sv.base.gen.submitMs, 0.99))
	put("loadgen.submit_p99_ms_high", "ms", quantile(sv.high.gen.submitMs, 0.99))

	// serve: recovery.
	var walOpen, schedRecover, catchup, records, envS []float64
	for _, r := range sv.recov {
		walOpen = append(walOpen, r.walOpen.Seconds())
		schedRecover = append(schedRecover, r.schedRecover.Seconds())
		catchup = append(catchup, r.catchup.Seconds())
		records = append(records, float64(r.records))
	}
	for _, s := range setups {
		envS = append(envS, s.EnvS)
	}
	put("wal.recover_s", "s", median(walOpen))
	put("wal.records_replayed", "count", median(records))
	put("experiments.env_s", "s", median(envS))
	put("sched.recover_s", "s", median(schedRecover))
	put("sched.catchup_s", "s", median(catchup))

	// market: the decision tick's layers.
	mk := tr.market
	put("sim.events", "count", float64(mk.events))
	put("sim.events_per_s", "1/s", mk.eventsPerS)
	put("sched.policy_calls", "count", float64(len(mk.policyUs))/float64(p.marketRuns))
	put("sched.policy_p50_us", "us", quantile(mk.policyUs, 0.50))
	put("sched.hook_grows", "count", float64(mk.grows))
	put("sched.hook_shrinks", "count", float64(mk.shrinks))
	for name, v := range mk.counters {
		put(name+".market", "count", v)
	}

	// cost: each scheme's Run per cell, and the registry counters.
	cs := tr.cost
	cellNames := map[experiments.SchemeKind]string{
		experiments.SchemeProteus:            "core.proteus_cell_ms",
		experiments.SchemeStandardAgileML:    "core.agileml_cell_ms",
		experiments.SchemeStandardCheckpoint: "core.checkpoint_cell_ms",
		experiments.SchemeOnDemand:           "core.ondemand_cell_ms",
	}
	for kind, name := range cellNames {
		put(name, "ms", quantile(cs.cellMs[kind], 0.50))
	}
	for name, v := range cs.counters {
		if name != "forecast.updates" { // the cost grid runs no forecaster
			put(name+".cost", "count", v)
		}
	}

	// Every phase: CPU share per module, GC share, allocation.
	for _, ph := range phaseNames {
		st := tr.phases[ph]
		var total float64
		for _, ns := range st.cpu {
			total += ns
		}
		for _, b := range cpuBuckets {
			put(fmt.Sprintf("cpu.%s.%s", b, ph), "share", st.cpu[b]/total)
		}
		put("runtime.gc_cpu_fraction."+ph, "share", st.gcCPU/st.totalCPU)
		put("runtime.alloc_mb."+ph, "MB", st.allocBytes/(1<<20))
	}

	// Tracing overhead: extra wall time per unit of work, traced over
	// untraced, on each phase's headline metric.
	put("trace.overhead_pct.submit_p50", "%",
		100*(quantile(sv.base.gen.submitMs, 0.5)/quantile(plain.serve.base.gen.submitMs, 0.5)-1))
	put("trace.overhead_pct.sim_hours_per_s", "%",
		100*(median(plain.market.simHoursPerS)/median(mk.simHoursPerS)-1))
	put("trace.overhead_pct.cells_per_s", "%",
		100*(median(plain.cost.cellsPerS)/median(cs.cellsPerS)-1))
	return m
}
