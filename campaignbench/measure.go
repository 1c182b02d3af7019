package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/mutiny-sim/mutiny/internal/campaign"
)

// passStats is one untraced campaign pass. The times are raw host times;
// factor is the pass's host-speed factor (1 when no probe ran).
type passStats struct {
	wall, setup, cpu time.Duration
	factor           float64
	plan             *plan
	out              *outcome
}

// experimentsPerSecond is the post-setup experiment throughput of the pass at
// reference-host speed.
func (ps passStats) experimentsPerSecond() float64 {
	return float64(ps.out.experiments) / ((ps.wall - ps.setup).Seconds() * ps.factor)
}

// untracedPass runs the whole campaign once with tracing off, from a cleared
// bootstrap-snapshot cache, so every pass pays the full set-up. With a probe
// it runs on one worker and probes the host's speed between steps; the probes
// are left out of the pass's times.
func untracedPass(cfg campaign.Config, shift int64, probe *hostProbe) passStats {
	campaign.ClearSnapshotCache()
	runtime.GC()
	var pause func()
	if probe != nil {
		cfg.Parallelism = 1
		probe.reset()
		pause = probe.maybe
	}
	spent := func() time.Duration {
		if probe == nil {
			return 0
		}
		return probe.spent
	}
	cpu0 := cpuTime()
	start := time.Now()
	p := prepare(cfg, shift, pause, nil, -1)
	p.baselines(nil, -1)
	setup := time.Since(start) - spent()
	out := p.execute(cfg.Parallelism, p.runner.Run, p.runner.RunPropagation, nil)
	ps := passStats{wall: time.Since(start) - spent(), setup: setup, cpu: cpuTime() - cpu0, factor: 1, plan: p, out: out}
	if probe != nil {
		ps.factor = probe.factor()
	}
	return ps
}

// measureEndToEnd runs passes under pass seeds first, first+1, … while
// another pass fits in the time budget (at least one pass), and reports the
// end-to-end metrics at reference-host speed: means or medians over the
// passes, and percentiles over every Runner.Run call of every pass.
func measureEndToEnd(cfg campaign.Config, first int64, seconds int) (*result, []byte, error) {
	probe, err := startProbe()
	if err != nil {
		return nil, nil, err
	}
	defer probe.stop()
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var passes []passStats
	correct := true
	for len(passes) < passSeeds {
		ps := untracedPass(cfg, (first+int64(len(passes)))*seedShift, probe)
		if len(passes) == 0 {
			if err := recheck(ps); err != nil {
				fmt.Fprintln(os.Stderr, "campaignbench: correctness:", err)
				correct = false
			}
		}
		ps.plan, ps.out.main = nil, nil
		passes = append(passes, ps)
		fmt.Fprintf(os.Stderr, "campaignbench: pass %d: wall %.3fs, setup %.3fs, cpu %.3fs, speed factor %.4f (%d probes), %.1f experiments/s at reference speed, %d pods created, tables %s\n",
			len(passes), ps.wall.Seconds(), ps.setup.Seconds(), ps.cpu.Seconds(), ps.factor, probe.probes, ps.experimentsPerSecond(), ps.out.pods, ps.out.hash)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(passes)) > budget {
			break
		}
	}

	res := &result{Correct: correct, Metrics: make(map[string]metric)}
	var walls, setups, cpus, took []float64
	var experiments, busy float64
	for _, ps := range passes {
		res.Attempted += ps.out.experiments
		res.Failed += ps.out.failed
		walls = append(walls, ps.wall.Seconds()*ps.factor)
		setups = append(setups, ps.setup.Seconds()*ps.factor)
		cpus = append(cpus, ps.cpu.Seconds()*ps.factor)
		experiments += float64(ps.out.experiments)
		busy += (ps.wall - ps.setup).Seconds() * ps.factor
		for _, d := range ps.out.runTook {
			took = append(took, ms(d)*ps.factor)
		}
	}
	fmt.Fprintf(os.Stderr, "campaignbench: %d passes of %d experiments, %d Runner.Run samples\n",
		len(passes), passes[0].out.experiments, len(took))

	// Each pass is another draw of the simulation randomness, and the storms'
	// size depends on the draw, so the draw-dependent metrics are means over
	// the passes. Set-up does not depend on the draw: its median drops a slow
	// outlier.
	res.Metrics["campaign_wall_s"] = metric{mean(walls), "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["experiments_per_s"] = metric{experiments / busy, "1/s"}
	res.Metrics["exp_ms_p50"] = metric{quantile(took, 0.50), "ms"}
	res.Metrics["exp_ms_p90"] = metric{quantile(took, 0.90), "ms"}
	res.Metrics["cpu_s"] = metric{mean(cpus), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, passes[0].out.tables, nil
}

// rechecks is about how many of a pass's main experiments recheck runs again.
const rechecks = 24

// recheck runs every k-th main experiment of a pass again, after the pass and
// outside any reported time, and checks that each gives the same result: the
// experiments are deterministic whatever ran before them in the process.
func recheck(ps passStats) error {
	p, results := ps.plan, ps.out.main
	every := max(1, len(p.main)/rechecks)
	n := 0
	for i := 0; i < len(p.main); i += every {
		if results[i] == nil {
			continue
		}
		n++
		if again := p.runner.Run(p.main[i]); !reflect.DeepEqual(again, results[i]) {
			return fmt.Errorf("main experiment %d (seed %d) gave OF=%v CF=%v Z=%v, then OF=%v CF=%v Z=%v",
				i, p.main[i].Seed, results[i].OF, results[i].CF, results[i].Z, again.OF, again.CF, again.Z)
		}
	}
	fmt.Fprintf(os.Stderr, "campaignbench: %d experiments of the first pass gave the same results again\n", n)
	return nil
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := min(max(int(q*float64(len(s))+0.5)-1, 0), len(s)-1)
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
