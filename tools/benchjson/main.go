// Command benchjson turns `go test -bench` output into a machine-readable
// JSON artifact. `make bench PR=N` pipes the perf-gate benchmarks through it
// to produce BENCH_PRN.json, which is committed per PR and uploaded by CI on
// every push, so the benchmark trajectory of the hot experiment path is
// recorded per commit (ms/exp, allocs/exp, the replay-vs-share ratio, and
// the parallel-campaign workers-vs-sequential speedup).
//
// Usage:
//
//	go test -run xxx -bench ... -benchmem . | go run ./tools/benchjson -out BENCH_PR4.json [-prev BENCH_PR3.json]
//
// Each artifact also records the benchmark environment (GOMAXPROCS from the
// bench lines' -P suffix, the CPU count, and the `cpu:` model line), so a
// speedup measured on a 1-vCPU runner is not mistaken for a scaling
// regression against a 16-core one.
//
// With -prev, the derived per-experiment latencies are compared against the
// previous PR's committed artifact: a >10% ms/exp regression (tunable with
// -warn-threshold) emits a non-blocking warning — on stderr and as a GitHub
// Actions "::warning::" annotation — and is recorded in the artifact's
// "regressions" field. campaign_parallel_speedup is compared in the
// higher-is-better direction: a >10% drop in parallel scaling warns the
// same way. The exit status stays zero: machine variance between
// runners makes a hard gate too noisy, but the warning makes the drift
// visible on every push.
//
// Unknown lines are ignored, so the full interleaved test output (campaign
// progress, table renders) can be piped in unfiltered.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MsPerOp     float64            `json:"ms_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"` // custom b.ReportMetric units
}

// Env records the machine the benchmarks ran on, so artifacts from
// different runners are comparable at a glance. GOMAXPROCS comes from the
// -P suffix of the parsed benchmark lines (the test binary's setting, not
// this process's); CPU comes from the `cpu:` header go test prints.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu,omitempty"`
}

// Report is the emitted artifact.
type Report struct {
	Env        Env                `json:"env"`
	Benchmarks map[string]Bench   `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived"`
	// Baseline echoes the previous artifact's derived metrics (when -prev
	// is given) and Regressions lists human-readable >threshold ms/exp
	// drifts against it. Both are informational — the perf gate warns, it
	// does not block.
	Baseline    map[string]float64 `json:"baseline,omitempty"`
	Regressions []string           `json:"regressions,omitempty"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	prev := flag.String("prev", "", "previous PR's committed artifact to compare against")
	warnThreshold := flag.Float64("warn-threshold", 0.10, "fractional ms/exp regression that triggers a warning")
	flag.Parse()

	report := Report{Benchmarks: map[string]Bench{}, Derived: map[string]float64{}}
	report.Env.NumCPU = runtime.NumCPU()
	report.Env.GOMAXPROCS = runtime.GOMAXPROCS(0) // fallback; bench -P suffix overrides
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	// Benchmarks that print to stdout mid-iteration split their result line:
	// the name appears alone (followed by the stray print), and the numbers
	// arrive on a later line. Track the pending name so such results are
	// still attributed.
	pending := ""
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the console log stays readable
		fields := strings.Fields(line)
		if name, b, ok := parseBenchLine(line); ok {
			report.Benchmarks[name] = b
			if p := procsOf(fields[0]); p > 0 {
				report.Env.GOMAXPROCS = p
			}
			pending = ""
			continue
		}
		if len(fields) >= 2 && fields[0] == "cpu:" {
			report.Env.CPU = strings.Join(fields[1:], " ")
			continue
		}
		if len(fields) > 0 && strings.HasPrefix(fields[0], "Benchmark") {
			if p := procsOf(fields[0]); p > 0 {
				report.Env.GOMAXPROCS = p
			}
			pending = trimProcSuffix(fields[0])
			continue
		}
		if pending != "" {
			if b, ok := parseResultFields(fields); ok {
				report.Benchmarks[pending] = b
				pending = ""
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		// An empty artifact means the benchmarks never ran (build failure,
		// panic, wrong -bench filter); fail loudly rather than record a
		// hollow gate result.
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results in input")
		os.Exit(1)
	}
	derive(&report)
	if *prev != "" {
		// The ::warning annotation goes to stdout only when the JSON goes to
		// a file — with -out unset, stdout IS the artifact and must stay
		// pure JSON.
		compareBaseline(&report, *prev, *warnThreshold, *out != "")
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
}

// trimProcSuffix strips the trailing -GOMAXPROCS suffix from a benchmark
// name, keeping sub-benchmark paths.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// procsOf extracts the trailing -GOMAXPROCS suffix, or 0 when absent.
func procsOf(name string) int {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			return p
		}
	}
	return 0
}

// parseBenchLine parses one `BenchmarkName-P  N  v1 unit1  v2 unit2 ...`
// line; it returns ok=false for everything else.
func parseBenchLine(line string) (string, Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Bench{}, false
	}
	b, ok := parseResultFields(fields[1:])
	if !ok {
		return "", Bench{}, false
	}
	return trimProcSuffix(fields[0]), b, true
}

// parseResultFields parses `N  v1 unit1  v2 unit2 ...` (a result line minus
// the benchmark name).
func parseResultFields(fields []string) (Bench, bool) {
	if len(fields) < 3 {
		return Bench{}, false
	}
	iters, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Iterations: iters}
	seen := false
	for i := 1; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
			b.MsPerOp = val / 1e6
			seen = true
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[unit] = val
		}
	}
	return b, seen
}

// compareBaseline loads the previous artifact and warns — without failing —
// when a headline per-experiment latency regressed by more than threshold.
func compareBaseline(r *Report, path string, threshold float64, annotate bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		// A missing baseline is normal on the first PR that adopts the
		// comparison; note it and move on.
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s unreadable (%v); skipping comparison\n", path, err)
		return
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v; skipping comparison\n", path, err)
		return
	}
	r.Baseline = base.Derived
	warn := func(msg string) {
		r.Regressions = append(r.Regressions, msg)
		fmt.Fprintln(os.Stderr, "benchjson: WARNING:", msg)
		if annotate {
			// GitHub Actions annotation; inert noise anywhere else.
			fmt.Printf("::warning title=perf regression::%s\n", msg)
		}
	}
	// Wall-clock metrics only compare like with like: a baseline captured on
	// a different machine shape (CPU count, GOMAXPROCS, model string) says
	// nothing about a latency delta, so time-based findings degrade to a
	// stderr note instead of a recorded regression. Allocation counts are
	// machine-stable and stay hard warnings either way.
	timeWarn := warn
	if base.Env != r.Env {
		timeWarn = func(msg string) {
			fmt.Fprintf(os.Stderr, "benchjson: note (env changed %+v -> %+v, not flagged): %s\n",
				base.Env, r.Env, msg)
		}
	}
	for _, metric := range []string{"experiment_ms_share", "experiment_ms_replay", "scale_500_ms_per_exp", "storm_ms_per_exp"} {
		was, okWas := base.Derived[metric]
		now, okNow := r.Derived[metric]
		if !okWas || !okNow || was <= 0 {
			continue
		}
		if now > was*(1+threshold) {
			timeWarn(fmt.Sprintf("%s regressed %.1f%% vs %s (%.2f -> %.2f ms/exp)",
				metric, (now/was-1)*100, path, was, now))
		}
	}
	for _, metric := range []string{"experiment_allocs_share", "experiment_allocs_replay", "scale_500_allocs_per_exp", "storm_allocs_per_exp"} {
		was, okWas := base.Derived[metric]
		now, okNow := r.Derived[metric]
		if !okWas || !okNow || was <= 0 {
			continue
		}
		if now > was*(1+threshold) {
			warn(fmt.Sprintf("%s regressed %.1f%% vs %s (%.0f -> %.0f allocs/exp)",
				metric, (now/was-1)*100, path, was, now))
		}
	}
	// campaign_parallel_speedup is higher-is-better: warn when the measured
	// parallel scaling DROPPED by more than the threshold vs the baseline.
	if was, ok := base.Derived["campaign_parallel_speedup"]; ok && was > 0 {
		if now, ok := r.Derived["campaign_parallel_speedup"]; ok && now < was*(1-threshold) {
			timeWarn(fmt.Sprintf("campaign_parallel_speedup regressed %.1f%% vs %s (×%.2f -> ×%.2f)",
				(1-now/was)*100, path, was, now))
		}
	}
}

// derive computes the headline metrics the perf gate tracks across PRs.
func derive(r *Report) {
	replay, hasReplay := r.Benchmarks["BenchmarkExperimentThroughput/replay"]
	share, hasShare := r.Benchmarks["BenchmarkExperimentThroughput/share"]
	if hasReplay {
		r.Derived["experiment_ms_replay"] = replay.MsPerOp
		r.Derived["experiment_allocs_replay"] = replay.AllocsPerOp
	}
	if hasShare {
		r.Derived["experiment_ms_share"] = share.MsPerOp
		r.Derived["experiment_allocs_share"] = share.AllocsPerOp
	}
	if hasReplay && hasShare && share.NsPerOp > 0 {
		r.Derived["replay_vs_share_ratio"] = replay.NsPerOp / share.NsPerOp
	}
	// The scale tier: per-experiment cost on the 500-node three-zone cluster,
	// and its ratio over the identical 10-node experiment — the sub-linearity
	// number (50× the nodes for a small multiple of the cost).
	s500, has500 := r.Benchmarks["BenchmarkScale500"]
	if has500 {
		r.Derived["scale_500_ms_per_exp"] = s500.MsPerOp
		r.Derived["scale_500_allocs_per_exp"] = s500.AllocsPerOp
	}
	if s10, ok := r.Benchmarks["BenchmarkScale10"]; ok && has500 && s10.NsPerOp > 0 {
		r.Derived["scale_500_vs_10_ratio"] = s500.NsPerOp / s10.NsPerOp
	}
	// The storm row: one uncontrolled-replication experiment, the cost that
	// sets a field campaign's wall-clock time and that no benign experiment
	// reaches. pods/op is deterministic — it moves only when a storm's
	// behaviour does, never when only its cost does.
	if st, ok := r.Benchmarks["BenchmarkSpawnStorm"]; ok {
		r.Derived["storm_ms_per_exp"] = st.MsPerOp
		r.Derived["storm_allocs_per_exp"] = st.AllocsPerOp
		if v, ok := st.Extra["pods/op"]; ok {
			r.Derived["storm_pods_per_exp"] = v
		}
	}
	if bs, ok := r.Benchmarks["BenchmarkBootstrapShare"]; ok {
		if v, ok := bs.Extra["replay/fork-×"]; ok {
			r.Derived["bootstrap_replay_vs_fork_ratio"] = v
		}
	}
	// The speedup is sequential over the FASTEST parallel entry: the bench
	// may emit several workers=N sub-benchmarks (a pinned workers=4 plus the
	// all-cores case) and the headline metric is the best achieved scaling.
	var seq, par float64
	for name, b := range r.Benchmarks {
		switch {
		case name == "BenchmarkCampaignParallel/sequential":
			seq = b.NsPerOp
		case strings.HasPrefix(name, "BenchmarkCampaignParallel/workers="):
			if par == 0 || b.NsPerOp < par {
				par = b.NsPerOp
			}
		}
	}
	if seq > 0 && par > 0 {
		r.Derived["campaign_parallel_speedup"] = seq / par
	}
}
