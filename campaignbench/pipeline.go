package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/report"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// The campaign pipeline, rebuilt from the campaign package's public calls so
// that each step can be timed: record and generate, golden baselines, then
// the main, propagation and refinement experiments, aggregation and the
// rendered tables. It follows campaign.RunCampaign step for step, except that
// the workload seed shifts the seed of every experiment and that it fans the
// experiments out on its own goroutines, one Runner.Run call at a time,
// rather than through the campaign package's worker pool. At seed 0 it renders
// exactly what RunCampaign renders, and the benchmark checks that
// (checkRunCampaign).

// plan is the set-up half of a pass: the configured Runner and the generated
// spec lists.
type plan struct {
	cfg    campaign.Config
	shift  int64
	runner *campaign.Runner
	main   []campaign.Spec
	prop   []campaign.Spec
	fields map[workload.Kind]int
	// pause, if set, is called between the steps of a pass (each workload
	// kind's recording and baseline, each experiment) and takes no part in
	// their times. It needs a single worker.
	pause func()
}

func (p *plan) between() {
	if p.pause != nil {
		p.pause()
	}
}

// newRunner configures a Runner the way campaign.RunCampaign does.
func newRunner(cfg campaign.Config) *campaign.Runner {
	r := campaign.NewRunner()
	r.GoldenRuns = cfg.GoldenRuns
	r.Parallelism = cfg.Parallelism
	r.ShareBootstrap = cfg.ShareBootstrap
	r.ClusterConfig.ControlPlaneReplicas = cfg.ControlPlaneReplicas
	r.ClusterConfig.AdmissionHooks = cfg.AdmissionHooks
	r.ClusterConfig.FailurePolicy = cfg.FailurePolicy
	if cfg.Workers > 0 {
		r.ClusterConfig.Workers = cfg.Workers
	}
	r.ClusterConfig.Zones = cfg.Zones
	r.ClusterConfig.EdgeNodes = cfg.EdgeNodes
	return r
}

// prepare records each workload's wire fields and generates its spec lists.
// pause is the plan's pause (nil for none).
func prepare(cfg campaign.Config, shift int64, pause func(), tr *tracer, parent int) *plan {
	p := &plan{cfg: cfg, shift: shift, runner: newRunner(cfg), fields: make(map[workload.Kind]int), pause: pause}
	stride := cfg.SampleStride
	for _, wl := range cfg.Workloads {
		sp := tr.begin("campaign.record", parent, -1)
		rec := p.runner.Record(wl)
		tr.end(sp)
		p.between()

		sp = tr.begin("campaign.generate", parent, -1)
		p.fields[wl] = len(rec.Fields())
		p.main = append(p.main, p.pick(campaign.Generate(wl, rec), stride)...)
		p.main = append(p.main, p.pick(campaign.GenerateControlPlane(wl, cfg.ControlPlaneReplicas), stride)...)
		p.main = append(p.main, p.pick(campaign.GenerateAdmission(wl, cfg.AdmissionHooks), stride)...)
		// Like RunCampaign, the six-spec topology matrix is never strided.
		p.main = append(p.main, p.pick(campaign.GenerateTopology(wl, cfg.Zones), 1)...)
		for _, component := range campaign.PropagationComponents() {
			p.prop = append(p.prop, p.pick(campaign.GeneratePropagation(wl, rec, component), stride)...)
		}
		tr.end(sp)
	}
	return p
}

// baselines builds every workload's golden baseline (and, through it, the
// shared bootstrap snapshot) before the first injection experiment.
func (p *plan) baselines(tr *tracer, parent int) {
	for _, wl := range p.cfg.Workloads {
		sp := tr.begin("campaign.baseline", parent, -1)
		p.runner.Baseline(wl)
		tr.end(sp)
		p.between()
	}
}

// pick is the campaign's strided subsample: every stride-th spec, with the
// plan's seed shift applied.
func (p *plan) pick(specs []campaign.Spec, stride int) []campaign.Spec {
	var out []campaign.Spec
	for i := 0; i < len(specs); i += stride {
		s := specs[i]
		s.Seed += p.shift
		out = append(out, s)
	}
	return out
}

// runFunc executes one experiment.
type runFunc func(spec campaign.Spec) *campaign.Result

// phaseResult holds one phase's results in spec order (nil = the experiment
// panicked) and the host time of each call.
type phaseResult struct {
	results []*campaign.Result
	took    []time.Duration
	failed  int
}

// runPhase runs every spec through fn on `workers` goroutines. A panic in fn
// is recovered on the calling goroutine and counted as a failed experiment,
// logged with its index and seed. On one worker, pause (if set) runs after
// every call, outside the call's time.
func runPhase(label string, specs []campaign.Spec, workers int, fn runFunc, pause func()) phaseResult {
	pr := phaseResult{results: make([]*campaign.Result, len(specs)), took: make([]time.Duration, len(specs))}
	var failed atomic.Int64
	call := func(i int) {
		start := time.Now()
		defer func() {
			pr.took[i] = time.Since(start)
			if r := recover(); r != nil {
				failed.Add(1)
				fmt.Fprintf(os.Stderr, "campaignbench: %s experiment %d (seed %d) failed: %v\n", label, i, specs[i].Seed, r)
			}
		}()
		pr.results[i] = fn(specs[i])
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				call(i)
				if pause != nil && workers == 1 {
					pause()
				}
			}
		}()
	}
	wg.Wait()
	pr.failed = int(failed.Load())
	return pr
}

// outcome is what the experiment half of a pass produced.
type outcome struct {
	experiments int
	failed      int
	pods        int // pods the experiments created, storms included
	// main holds the main experiments' results in spec order (nil = failed).
	main []*campaign.Result
	// runTook holds the host time of every main and refinement experiment
	// (the Runner.Run calls); busy sums every experiment call, propagation
	// included.
	runTook []time.Duration
	busy    time.Duration
	tables  []byte
	hash    string
}

func (o *outcome) add(pr phaseResult, isRun bool) {
	o.experiments += len(pr.results)
	o.failed += pr.failed
	for _, res := range pr.results {
		if res != nil {
			o.pods += res.PodsCreated
		}
	}
	for _, d := range pr.took {
		o.busy += d
	}
	if isRun {
		o.runTook = append(o.runTook, pr.took...)
	}
}

// execute runs the experiments on `workers` goroutines in the order
// campaign.RunCampaign runs them — the main and propagation experiments (its
// RunShard), then the refinement round derived from the main results (its
// MergeShardOutputs) — aggregates them and renders the tables.
func (p *plan) execute(workers int, run, prop runFunc, tr *tracer) *outcome {
	o := &outcome{}
	mainPhase := runPhase("main", p.main, workers, run, p.pause)
	o.add(mainPhase, true)
	o.main = mainPhase.results

	propPhase := runPhase("propagation", p.prop, workers, prop, p.pause)
	o.add(propPhase, false)

	sp := tr.begin("campaign.aggregate", -1, -1)
	main := campaign.NewAggregate()
	for _, res := range mainPhase.results {
		if res != nil {
			main.Add(res)
		}
	}
	tr.end(sp)

	// The refinement round derives its specs from the main results, per
	// workload kind, exactly as RunCampaign does.
	var refineSpecs []campaign.Spec
	for _, wl := range p.cfg.Workloads {
		scoped := campaign.NewAggregate()
		for _, res := range main.Results {
			if res.Spec.Workload == wl {
				scoped.Add(res)
			}
		}
		refineSpecs = append(refineSpecs, p.pick(campaign.GenerateCriticalRefinement(wl, scoped.CriticalFields()), p.cfg.SampleStride)...)
	}
	refinePhase := runPhase("refinement", refineSpecs, workers, run, p.pause)
	o.add(refinePhase, true)
	refined := 0
	for _, res := range refinePhase.results {
		if res != nil {
			refined++
		}
	}
	cells := propagationCells(p.cfg, p.prop, propPhase.results)

	sp = tr.begin("report.render", -1, -1)
	var b strings.Builder
	render(&b, p.cfg, main, refined, cells, p.fields)
	tr.end(sp)
	o.tables = []byte(b.String())
	sum := sha256.Sum256(o.tables)
	o.hash = hex.EncodeToString(sum[:8])
	return o
}

// propagationCells folds propagation results into the Table VI cells, in the
// campaign's order: workloads, then components.
func propagationCells(cfg campaign.Config, specs []campaign.Spec, results []*campaign.Result) []campaign.PropagationCell {
	cells := make(map[string]*campaign.PropagationCell)
	for i, spec := range specs {
		res := results[i]
		if res == nil {
			continue
		}
		key := string(spec.Workload) + "/" + spec.Injection.SourcePrefix
		cell, ok := cells[key]
		if !ok {
			cell = &campaign.PropagationCell{Workload: spec.Workload, Component: spec.Injection.SourcePrefix}
			cells[key] = cell
		}
		cell.Injected++
		if res.PropPersisted {
			cell.Propagated++
		}
		if res.PropErrored {
			cell.Errored++
		}
	}
	var out []campaign.PropagationCell
	for _, wl := range cfg.Workloads {
		for _, component := range campaign.PropagationComponents() {
			if cell, ok := cells[string(wl)+"/"+component]; ok {
				out = append(out, *cell)
			}
		}
	}
	return out
}

// render writes what mutiny-campaign prints to stdout for this configuration.
func render(w io.Writer, cfg campaign.Config, main *campaign.Aggregate, refined int, cells []campaign.PropagationCell, fields map[workload.Kind]int) {
	fmt.Fprintf(w, "Campaign: %d injection experiments (+%d refinement, +%d propagation cells); recorded fields: %v\n\n",
		main.Total(), refined, len(cells), fields)
	report.Table3(w, main)
	fmt.Fprintln(w)
	report.Table4(w, main)
	fmt.Fprintln(w)
	report.Table5(w, main)
	fmt.Fprintln(w)
	report.Table6(w, cells)
	fmt.Fprintln(w)
	if cfg.ControlPlaneReplicas > 1 {
		report.HATable(w, main)
		fmt.Fprintln(w)
	}
	if cfg.AdmissionHooks > 0 {
		report.AdmissionTable(w, main)
		fmt.Fprintln(w)
	}
	if cfg.Zones > 1 {
		report.TopologyTable(w, main)
		fmt.Fprintln(w)
	}
	report.Figure6(w, main)
	fmt.Fprintln(w)
	report.Figure7(w, main)
	fmt.Fprintln(w)
	report.CriticalFields(w, main)
	fmt.Fprintln(w)
	report.Findings(w, main)
}
