// Command campaignbench is the repository's benchmark. It runs one of two
// fixed injection campaigns through the campaign pipeline and prints one JSON
// result line.
//
//	campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it runs the campaign pass after pass, on one worker, until
// --seconds have passed, and reports the end-to-end metrics at reference-host
// speed (hostspeed.go): means and medians over the passes, percentiles over
// their experiments. With --trace 1 it runs the campaign once untraced, fanned out
// over one worker per CPU, and once more sequentially through a traced copy of
// the experiment lifecycle, which times the calls into each layer from outside
// and reads each layer's public counters, and reports the per-layer metrics.
//
// Every pass runs the same faults under its own pass seed, which shifts the
// seed of every experiment: pass j of workload seed n runs under pass seed
// n×passSeeds + j, so a run averages over as many draws of the simulation
// randomness as it makes passes, and the traced run uses pass seed n×passSeeds.
// Pass seed 0 runs exactly campaign.RunCampaign's experiments. The run checks
// its own outputs: a sample of the first pass's experiments, run again after
// the last pass, must give the same results; the traced sequential pass must
// render the tables of the untraced parallel pass; every k-th traced
// experiment must match campaign.Runner.RunObserved and repeat its exact
// counters; and at seed 0 the first pass's tables must be byte-identical to
// campaign.RunCampaign with the same configuration.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// benchWorkloads are the campaigns the benchmark runs, by name. DESIGN.md
// records why each was chosen and its equivalent mutiny-campaign command.
var benchWorkloads = map[string]campaign.Config{
	// The paper's store-channel field campaign on a flat cluster.
	"field-campaign": {
		Workloads:      workload.Kinds(),
		GoldenRuns:     20,
		SampleStride:   5,
		ShareBootstrap: true,
	},
	// Replicated store and apiservers, the admission chain and zones: the
	// only workload whose experiments run raft, election failover and
	// webhook calls.
	"platform-faults": {
		Workloads:            []workload.Kind{workload.Policy},
		GoldenRuns:           20,
		SampleStride:         5,
		ControlPlaneReplicas: 3,
		AdmissionHooks:       3,
		Zones:                3,
		ShareBootstrap:       true,
	},
}

// seedShift separates the experiment seeds of two pass seeds. Generated
// campaign seeds stay below 10,000,000, so shifted seeds never collide with
// another pass seed's, nor with the golden and bootstrap seeds.
const seedShift = 10_000_000

// passSeeds is how many pass seeds a workload seed owns: pass j of workload
// seed n runs under pass seed n×passSeeds + j, and no run makes more passes.
const passSeeds = 64

// maxSeed keeps every shifted experiment seed within int64.
const maxSeed = math.MaxInt64/seedShift/passSeeds - 1

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	res, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench: writing result:", err)
		os.Exit(1)
	}
}

func run(args []string) (*result, error) {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int("seed", 0, "workload seed: sets the seed shift of every pass (0 = the first pass runs exactly campaign.RunCampaign's experiments)")
		seconds = fs.Int("seconds", 60, "measuring time of an untraced run")
		trace   = fs.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg, ok := benchWorkloads[*name]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seed < 0 || int64(*seed) > maxSeed:
		return nil, fmt.Errorf("-seed must be in [0, %d], got %d", int64(maxSeed), *seed)
	case *seconds < 1:
		return nil, fmt.Errorf("-seconds must be >= 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	first := int64(*seed) * passSeeds
	fmt.Fprintf(os.Stderr, "campaignbench: %s, seed %d, stride %d, trace %d\n", *name, *seed, cfg.SampleStride, *trace)

	var (
		res    *result
		tables []byte
		err    error
	)
	if *trace == 1 {
		res, tables, err = measureLayers(cfg, first*seedShift, *name, *seed)
	} else {
		res, tables, err = measureEndToEnd(cfg, first, *seconds)
	}
	if err != nil {
		return nil, err
	}
	if *seed == 0 {
		if err := checkRunCampaign(cfg, tables); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench: correctness:", err)
			res.Correct = false
		}
	}
	return res, nil
}

// checkRunCampaign ties the benchmark to the shipped pipeline: at seed 0 the
// benchmark runs exactly campaign.RunCampaign's experiments, so the rendered
// tables must match byte for byte.
func checkRunCampaign(cfg campaign.Config, tables []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign.RunCampaign panicked: %v", r)
		}
	}()
	campaign.ClearSnapshotCache()
	out := campaign.RunCampaign(cfg)
	var want strings.Builder
	render(&want, cfg, out.Main, out.Refinement.Total(), out.Propagation, out.FieldsRecorded)
	if want.String() != string(tables) {
		return errors.New("tables differ from campaign.RunCampaign with the same configuration")
	}
	fmt.Fprintln(os.Stderr, "campaignbench: tables match campaign.RunCampaign")
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(benchWorkloads))
	for n := range benchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
