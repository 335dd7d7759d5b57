package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

func TestMain(m *testing.M) {
	// The set-up timing re-executes this binary as a fresh process.
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestReducedRuns runs every workload at a reduced size, untraced and
// traced, and checks that every correctness check passes and that the
// printed metrics are exactly the ones BENCHMARK.json names, with its
// units.
func TestReducedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			name := w.Name + "/untraced"
			if trace {
				want, name = spec.PerLayer, w.Name+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(options{
					workload: w.Name, seed: 7, seconds: 2, trace: trace,
					workdir: t.TempDir(), small: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d: %v", len(got), len(want), got)
				}
				for _, m := range want {
					pm, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case pm.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, pm.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestBucketOf pins the CPU attribution rule: the innermost repository
// frame wins, then the harness, then the stack's standard-library role.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "proteus/internal/wal.(*Log).appendLocked", "proteus/internal/sched.(*Scheduler).Submit"}, "wal"},
		{[]string{"encoding/json.Unmarshal", "proteus/internal/server/client.New"}, "server"},
		{[]string{"net/http.(*conn).serve", "main.post"}, "harness"},
		{[]string{"syscall.Syscall", "net/http.(*conn).readRequest"}, "http"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
