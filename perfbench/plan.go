package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"proteus/internal/experiments"
	"proteus/internal/jobspec"
	"proteus/internal/sched"
)

// Fixed workload parameters. Only the seed and the run length change a
// run's inputs.
const (
	// baseRate and highRate are the serve phase's two open-loop POST
	// rates (per wall second). The high phase doubles the speedup too,
	// so it replays the same virtual schedule, and the same footprint
	// load, twice as fast on the wall clock.
	baseRate    = 200.0
	highRate    = 400.0
	baseSpeedup = 3600.0 // virtual seconds per wall second at baseRate
	// arrivalLead is how far ahead of the pacer, in virtual time, every
	// job's arrival_minutes lies when its POST is due: 2 wall seconds at
	// the base rate, 1 at the high rate. A generator later than that
	// would see its arrival clamped, so the run fails instead.
	arrivalLead = 120 * time.Minute
	// Serve jobs are small (0.002–0.008 h on 256 cores, about half the
	// shared footprint at the base rate) so the queue stays bounded.
	serveMinHours  = 0.002
	serveHourRange = 0.006

	// marketJobs tenants over a 30-day market, every third proactive;
	// the offered load exceeds the footprint.
	marketJobs     = 1000
	marketEvalDays = 30

	// The §6 cost grid: 20 h jobs, 4 zones, 250 start offsets per zone,
	// run serially.
	costJobHours = 20.0
	costSamples  = 250

	// setupSamples is how many fresh processes time the cold set-up.
	setupSamples = 7
)

// plan fixes every input and size of one run.
type plan struct {
	workload string
	seed     int64
	seconds  int
	// shards is the decision-shard count and the WAL stream count
	// (1 = flat log, one decision shard).
	shards int

	serveJobs   int
	recoveries  int
	marketJobs  int
	marketRuns  int
	costSamples int
	costGrids   int

	serve *serveInputs
}

// workloads maps each workload name to its layout.
var workloads = map[string]int{"flat": 1, "sharded": 4}

// newPlan sizes a run from --seconds: 36 s gives 1,350 POSTs per serve
// rate, 27 recoveries, four market runs and four cost grids, about 40 s
// of measurement on a 2-vCPU host.
func newPlan(workload string, seed int64, seconds int) (*plan, error) {
	shards, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want flat or sharded)", workload)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	s := float64(seconds)
	atLeast := func(x float64, min int) int {
		if n := int(math.Round(x)); n > min {
			return n
		}
		return min
	}
	return &plan{
		workload:    workload,
		seed:        seed,
		seconds:     seconds,
		shards:      shards,
		serveJobs:   atLeast(s*37.5, 40),
		recoveries:  atLeast(s*3/4, 3),
		marketJobs:  marketJobs,
		marketRuns:  atLeast(s/9, 1),
		costSamples: costSamples,
		costGrids:   atLeast(s/10, 1),
	}, nil
}

// The price histories are a fixed input, like a dataset: every phase
// runs over the markets experiments.DefaultMarketConfig seeds (seed 1),
// and --seed varies what the tenants submit. Market seeds change how
// much work a simulated hour holds, which would swamp the run-to-run
// differences the benchmark exists to show.

// serveConfig is the serve phase's market: the -serve defaults.
func serveConfig() experiments.MarketConfig {
	return experiments.DefaultMarketConfig()
}

// marketConfig is the multi-tenant month's market.
func marketConfig() experiments.MarketConfig {
	cfg := experiments.DefaultMarketConfig()
	cfg.EvalDays = marketEvalDays
	cfg.Zones = 1
	return cfg
}

// costConfig is the §6 grid's market: four zones, serial.
func costConfig() experiments.MarketConfig {
	cfg := experiments.DefaultMarketConfig()
	cfg.Parallel = 1
	return cfg
}

// serveInputs is the serve phase's open-loop schedule. Job i is due at
// virtual instant due[i] (seeded exponential gaps, a Poisson stream of
// independent tenants) and asks to arrive arrivalLead later. On the
// wall clock it is due at due[i]/speedup after the first POST.
type serveInputs struct {
	entries []jobspec.Entry
	bodies  [][]byte
	due     []time.Duration
	jobs    []sched.Job // the same entries as scheduler jobs, for the batch check
}

func newServeInputs(seed int64, n int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	meanGap := baseSpeedup / baseRate // virtual seconds between POSTs
	in := &serveInputs{
		entries: make([]jobspec.Entry, n),
		bodies:  make([][]byte, n),
		due:     make([]time.Duration, n),
	}
	var at time.Duration
	for i := range in.entries {
		at += time.Duration(rng.ExpFloat64() * meanGap * float64(time.Second))
		id := i
		in.entries[i] = jobspec.Entry{
			ID:             &id,
			Name:           fmt.Sprintf("tenant-%d", i),
			Hours:          serveMinHours + serveHourRange*rng.Float64(),
			ArrivalMinutes: (at + arrivalLead).Minutes(),
			Priority:       rng.Intn(3),
		}
		in.due[i] = at
		b, err := json.Marshal(in.entries[i])
		if err != nil {
			return nil, err
		}
		in.bodies[i] = b
	}
	jobs, err := jobspec.Jobs(in.entries, 0)
	if err != nil {
		return nil, err
	}
	in.jobs = jobs
	return in, nil
}

// marketMix is the month's tenant mix: the seeded synthetic stream with
// every third job opting into forecast-driven handling.
func marketMix(seed int64, n int) []sched.Job {
	jobs := experiments.SyntheticJobs(n, seed)
	for i := range jobs {
		jobs[i].Proactive = i%3 == 1
	}
	return jobs
}
