// Command perfbench is the repository benchmark. One run measures the
// three ROADMAP paths in turn, each as its own phase:
//
//   - serve: the HTTP control plane end to end with a durable WAL at two
//     fixed open-loop rates, then crash-to-serving recovery;
//   - market: a month of multi-tenant market time in a batch sched.Run;
//   - cost: the paper's §6 cost grid (experiments.RunSchemes).
//
// The workload picks the scheduler and WAL layout the phases run on:
// flat (one decision shard, one WAL stream) or sharded (four of each).
// What the tenants submit derives from --seed over fixed price
// histories; every output is checked. The last
// line of standard output is one JSON object: with --trace 0 the
// end-to-end metrics of an untraced pass, with --trace 1 the per-layer
// metrics of a traced pass (run after an untraced one, whose gap to it
// is reported as the tracing overhead). See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload flat --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
)

func main() {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "scheduler and WAL layout: flat or sharded")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.IntVar(&o.seconds, "seconds", 36, "run length; sizes every phase")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced pass and reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for WAL files and result records")
	flag.Parse()
	if trace != 0 && trace != 1 {
		log.Fatal("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		log.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// small shrinks the market mix and the cost grid for the self-test.
	small bool
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checks collects failed correctness checks and counts operations.
type checks struct {
	problems          []string
	attempted, failed int
}

func (c *checks) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	log.Printf("CHECK FAILED: %s", msg)
	c.problems = append(c.problems, msg)
}

// op counts one attempted operation and whether it succeeded.
func (c *checks) op(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// run executes one invocation: set-up timing, the untraced pass, and
// with trace the traced pass; it writes the full record under workdir.
func run(o options) (*result, error) {
	p, err := newPlan(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	if o.small {
		p.marketJobs, p.costSamples = 100, 10
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	steal0, total0 := cpuTicks()
	setups, err := timeSetup(p, tmp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ck := &checks{}
	log.Printf("%s seed %d: untraced pass", p.workload, p.seed)
	plain, err := runPass(p, filepath.Join(tmp, "plain"), nil, ck)
	if err != nil {
		return nil, err
	}
	var traced *passOut
	var spans *spanLog
	if o.trace {
		log.Printf("%s seed %d: traced pass", p.workload, p.seed)
		spans = newSpanLog()
		if traced, err = runPass(p, filepath.Join(tmp, "traced"), spans, ck); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(p, plain, setups, rss)
	var layers map[string]metric
	if traced != nil {
		layers = perLayer(p, plain, traced, setups)
	}
	res := &result{Correct: len(ck.problems) == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: e2e}
	if o.trace {
		res.Metrics = layers
	}
	for name, m := range res.Metrics {
		if !finite(m.Value) {
			ck.fail("metric %s has no value", name)
			res.Correct = false
			res.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	host := newHostRecord(tmp)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		host.CPUStealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	if err := writeRecord(o, p, host, res, e2e, layers, plain, ck, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// writeRecord stores the host record, the plan, every metric of the
// run and the failed checks next to the spans of a traced run.
func writeRecord(o options, p *plan, host hostRecord, res *result, e2e, layers map[string]metric, plain *passOut, ck *checks, spans *spanLog) error {
	dir := filepath.Join(o.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", p.workload, p.seed, trace))
	rec := struct {
		Host      hostRecord        `json:"host"`
		Plan      planRecord        `json:"plan"`
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Problems  []string          `json:"problems,omitempty"`
		EndToEnd  map[string]metric `json:"end_to_end"`
		PerLayer  map[string]metric `json:"per_layer,omitempty"`
		// SubmitMs summarizes the untraced pass's submit latencies.
		SubmitMs map[string]latencySummary `json:"submit_ms"`
	}{host, newPlanRecord(p), res.Correct, res.Attempted, res.Failed, ck.problems, e2e, layers,
		map[string]latencySummary{
			"base_rate": summarize(plain.serve.base.gen.submitMs),
			"high_rate": summarize(plain.serve.high.gen.submitMs),
		}}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if spans != nil {
		return spans.writeJSONL(base + "-spans.jsonl")
	}
	return nil
}

// planRecord is the part of the plan a reader needs to reproduce a run.
type planRecord struct {
	Workload           string  `json:"workload"`
	Seconds            int     `json:"seconds"`
	Shards             int     `json:"shards"`
	BaseRate           float64 `json:"serve_base_rate_per_s"`
	HighRate           float64 `json:"serve_high_rate_per_s"`
	BaseSpeedup        float64 `json:"serve_base_speedup"`
	HighSpeedup        float64 `json:"serve_high_speedup"`
	LeadMinutes        float64 `json:"serve_arrival_lead_minutes"`
	Connections        int     `json:"serve_connections"`
	ServeJobs          int     `json:"serve_jobs"`
	Recoveries         int     `json:"recoveries"`
	MarketJobs         int     `json:"market_jobs"`
	MarketRuns         int     `json:"market_runs"`
	CostSamples        int     `json:"cost_samples_per_zone"`
	CostGrids          int     `json:"cost_grids"`
	ScheduleSeed       int64   `json:"seed_serve_schedule"`
	ServeMarketSeed    int64   `json:"seed_serve_market"`
	TenantMixSeed      int64   `json:"seed_market_mix"`
	MarketSeed         int64   `json:"seed_market"`
	CostZoneSeeds      []int64 `json:"seed_cost_zones"`
	SetupProcessesUsed int     `json:"setup_processes"`
}

func newPlanRecord(p *plan) planRecord {
	cfg := costConfig()
	var zones []int64
	for z := 0; z < cfg.Zones; z++ {
		zones = append(zones, cfg.Seed+int64(z)*1_000_003)
	}
	return planRecord{
		Workload: p.workload, Seconds: p.seconds, Shards: p.shards,
		BaseRate: baseRate, HighRate: highRate, BaseSpeedup: baseSpeedup, HighSpeedup: baseSpeedup * highRate / baseRate,
		LeadMinutes: arrivalLead.Minutes(), Connections: generatorConns, ServeJobs: p.serveJobs, Recoveries: p.recoveries,
		MarketJobs: p.marketJobs, MarketRuns: p.marketRuns, CostSamples: p.costSamples, CostGrids: p.costGrids,
		ScheduleSeed: p.seed, ServeMarketSeed: serveConfig().Seed, TenantMixSeed: p.seed, MarketSeed: marketConfig().Seed,
		CostZoneSeeds: zones, SetupProcessesUsed: setupSamples,
	}
}
