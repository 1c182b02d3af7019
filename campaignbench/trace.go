package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/inject"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// The traced run replays the experiment lifecycle of campaign.Runner through
// the public calls of each layer, timing every call from outside and reading
// the layers' public counters around it. The constants below mirror the
// campaign package's experiment timeline; the fidelity check (every k-th
// experiment must equal Runner.RunObserved) fails if they drift apart.
const (
	eventBudget       = 500_000
	bootstrapDeadline = 30 * time.Second
	windowLength      = 45 * time.Second
	opStartDelay      = time.Second
)

// bootstrapSeed mirrors the campaign package's canonical per-workload seed of
// the shared bootstrap snapshot.
func bootstrapSeed(kind workload.Kind) int64 {
	base := map[workload.Kind]int64{
		workload.Deploy: 10_000, workload.ScaleUp: 20_000,
		workload.Failover: 30_000, workload.Policy: 40_000,
	}[kind]
	if base == 0 {
		base = 90_000
	}
	return base + 555_555
}

// fidelitySamples is about how many experiments of a traced run are checked
// against Runner.RunObserved and replayed a second time.
const fidelitySamples = 50

// span is one timed call. Spans of one experiment share Exp; set-up and
// post-processing spans have Exp -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Exp    int    `json:"exp"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass calls the same code at no cost.
type tracer struct {
	t0 time.Time
	// countAllocs reads MemStats.Mallocs around every span. The read stops
	// the world (about 25 µs), so only the replay tracer counts.
	countAllocs bool
	spans       []span
	ms          runtime.MemStats
}

func newTracer(countAllocs bool) *tracer { return &tracer{t0: time.Now(), countAllocs: countAllocs} }

// begin opens a span and returns its id. The allocation counter is read
// before the clock, and again after it in end, so reading it is not timed.
func (t *tracer) begin(name string, parent, exp int) int {
	if t == nil {
		return -1
	}
	var mallocs uint64
	if t.countAllocs {
		runtime.ReadMemStats(&t.ms)
		mallocs = t.ms.Mallocs
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Exp: exp, Name: name,
		Allocs: mallocs, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if t.countAllocs {
		runtime.ReadMemStats(&t.ms)
		s.Allocs = t.ms.Mallocs - s.Allocs
	}
}

// finish computes every span's self time: its duration minus its children's.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self += t.spans[i].End - t.spans[i].Start
		if p := t.spans[i].Parent; p >= 0 {
			t.spans[p].Self -= t.spans[i].End - t.spans[i].Start
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotal sums the duration, self time, allocations and count of the spans
// of one name.
type spanTotal struct {
	dur    time.Duration
	self   time.Duration
	allocs uint64
	n      int
}

func (t *tracer) totals() map[string]*spanTotal {
	out := make(map[string]*spanTotal)
	for _, s := range t.spans {
		tot := out[s.Name]
		if tot == nil {
			tot = &spanTotal{}
			out[s.Name] = tot
		}
		tot.dur += time.Duration(s.End - s.Start)
		tot.self += time.Duration(s.Self)
		tot.allocs += s.Allocs
		tot.n++
	}
	return out
}

// exactCounts are the counters that must repeat exactly when an experiment
// is replayed: they depend only on the spec and the simulation.
type exactCounts struct {
	Events    int64
	Revisions int64
	OK        map[string]int // successful writes by client identity
	Errors    map[string]int // failed requests by client identity
	Fired     bool
	Activated bool
}

// expCounts is everything the traced lifecycle reads from the layers for one
// experiment.
type expCounts struct {
	exact           exactCounts
	auditErrors     int
	admitted        int64
	admissionDenied int64
	storeBytesEnd   int64
	decodeHits      int64
	decodeMisses    int64
	clientErrors    int
	budgetExhausted bool
	pendingAfter    int
	objectsEnd      int
	podsEnd         int
}

// layerReading is a snapshot of the cumulative counters a fork carries.
type layerReading struct {
	events, revision         int64
	ok, errs                 map[string]int
	entries                  int
	decodeHits, decodeMisses int64
	admitted, denied         int64
}

func readLayers(cl *cluster.Cluster) layerReading {
	// Every apiserver replica writes to one shared audit trail, so it is read
	// once, through the server snapshot: its counters hold every identity
	// that ever wrote or failed, so no client is left out.
	audit := cl.Server.Snapshot().Audit
	r := layerReading{
		events:   cl.Loop.EventsExecuted(),
		revision: cl.Backend.Revision(),
		ok:       audit.OKByIdentity,
		errs:     audit.ErrByIdentity,
		entries:  len(audit.Entries),
	}
	for _, srv := range cl.Servers {
		hits, misses, _ := srv.DecodeCacheStats()
		r.decodeHits += hits
		r.decodeMisses += misses
	}
	if chain := cl.Admission(); chain != nil {
		r.admitted = chain.Evaluated()
		r.denied = chain.Denied() + chain.RejectedUnavailable()
	}
	return r
}

// delta returns after−before per identity, keeping only non-zero entries.
func delta(after, before map[string]int) map[string]int {
	out := make(map[string]int)
	for id, n := range after {
		if d := n - before[id]; d != 0 {
			out[id] = d
		}
	}
	return out
}

// tracedExec runs experiments through the traced lifecycle, sequentially.
// Every k-th experiment is also run by Runner.RunObserved and replayed through
// the lifecycle under replay, the tracer that counts allocations.
type tracedExec struct {
	tr     *tracer
	replay *tracer
	runner *campaign.Runner
	snaps  map[workload.Kind]*cluster.Snapshot
	pool   *classify.BufferPool
	every  int // check every k-th experiment

	next   int
	counts []expCounts

	checked, fidelityMismatch, repeatMismatch int
	tracedTook, untracedTook                  []time.Duration
}

// run is the runFunc of the traced pass.
func (x *tracedExec) run(s campaign.Spec) *campaign.Result {
	exp := x.next
	x.next++
	start := time.Now()
	res, obs, c := x.lifecycle(x.tr, s, exp)
	took := time.Since(start)
	x.counts = append(x.counts, c)
	if exp%x.every == 0 {
		x.tracedTook = append(x.tracedTook, took)
		x.verify(s, exp, res, obs, c)
	}
	x.pool.Release(obs)
	return res
}

// verify checks one traced experiment against Runner.RunObserved (the
// classified result and the whole observation must be equal) and replays it
// through the traced lifecycle (the exact counters must repeat). The
// RunObserved call is timed for the tracing overhead.
func (x *tracedExec) verify(s campaign.Spec, exp int, res *campaign.Result, obs *classify.Observation, c expCounts) {
	x.checked++
	start := time.Now()
	want, wantObs := x.runner.RunObserved(s)
	x.untracedTook = append(x.untracedTook, time.Since(start))
	if !reflect.DeepEqual(res, want) || !reflect.DeepEqual(obs, wantObs) {
		x.fidelityMismatch++
		fmt.Fprintf(os.Stderr, "campaignbench: fidelity: experiment %d (seed %d): traced OF=%v CF=%v Z=%v, Runner.RunObserved OF=%v CF=%v Z=%v\n",
			exp, s.Seed, res.OF, res.CF, res.Z, want.OF, want.CF, want.Z)
	}

	_, again, c2 := x.lifecycle(x.replay, s, exp)
	x.pool.Release(again)
	if !reflect.DeepEqual(c.exact, c2.exact) {
		x.repeatMismatch++
		fmt.Fprintf(os.Stderr, "campaignbench: repeat: experiment %d (seed %d): counters %+v, then %+v\n", exp, s.Seed, c.exact, c2.exact)
	}
}

// lifecycle is campaign.Runner's experiment lifecycle in the share-bootstrap
// regime — fork, injector, collector and client, arm, the window, collection,
// classification and stop — with a span around each layer call.
func (x *tracedExec) lifecycle(tr *tracer, s campaign.Spec, exp int) (*campaign.Result, *classify.Observation, expCounts) {
	root := tr.begin("campaign.experiment", -1, exp)
	defer tr.end(root)
	baseline := x.runner.Baseline(s.Workload)

	sp := tr.begin("cluster.fork", root, exp)
	cl := x.snaps[s.Workload].Fork(s.Seed)
	cl.Loop.SetEventBudget(eventBudget)
	tr.end(sp)

	sp = tr.begin("inject.attach", root, exp)
	injector := inject.New(cl.Loop)
	cl.AttachInjector(injector)
	tr.end(sp)
	driver := workload.NewDriver(cl, s.Workload)
	sp = tr.begin("trace.read_counters", root, exp)
	before := readLayers(cl)
	tr.end(sp)

	sp = tr.begin("classify.start", root, exp)
	collector := classify.NewCollector(cl)
	collector.UsePool(x.pool)
	collector.Start()
	tr.end(sp)

	// Runner builds the client before the collector; NewClient has no side
	// effects, so building it here keeps the order of everything scheduled.
	sp = tr.begin("workload.client_start", root, exp)
	ns, svc := driver.TargetService()
	client := workload.NewClient(cl, ns, svc)
	client.Start()
	tr.end(sp)

	if s.Injection != nil {
		sp = tr.begin("inject.arm", root, exp)
		injector.Arm(*s.Injection)
		tr.end(sp)
	}

	windowStart := cl.Loop.Now()
	sp = tr.begin("sim.run_until", root, exp)
	cl.Loop.RunUntil(windowStart + opStartDelay)
	tr.end(sp)

	sp = tr.begin("workload.drive", root, exp)
	driver.Run()
	tr.end(sp)

	sp = tr.begin("sim.run_until", root, exp)
	cl.Loop.RunUntil(windowStart + windowLength)
	tr.end(sp)

	sp = tr.begin("classify.finish", root, exp)
	obs := collector.Finish(client)
	tr.end(sp)

	sp = tr.begin("classify.decide", root, exp)
	res := &campaign.Result{
		Spec:                     s,
		OF:                       classify.ClassifyOF(obs, baseline),
		CF:                       classify.ClassifyCF(obs, baseline),
		Z:                        classify.ClientZ(obs, baseline),
		UserErrors:               obs.UserErrors,
		PodsCreated:              obs.PodsCreated,
		FailoverMillis:           obs.FailoverMillis,
		StaleReadMillis:          obs.StaleReadMillis,
		AdmissionOutageMillis:    obs.AdmissionOutageMillis,
		PolicyViolations:         obs.PolicyViolations,
		TopologyDisruptionMillis: obs.TopologyDisruptedMillis,
		TopologyRecoveryMillis:   obs.TopologyRecoveryMillis,
	}
	tr.end(sp)
	rep := injector.Report()
	if s.Injection != nil {
		res.Report = rep
	}

	sp = tr.begin("trace.read_counters", root, exp)
	after := readLayers(cl)
	tr.end(sp)
	c := expCounts{
		exact: exactCounts{
			Events:    after.events - before.events,
			Revisions: after.revision - before.revision,
			OK:        delta(after.ok, before.ok),
			Errors:    delta(after.errs, before.errs),
			Fired:     rep.Fired,
			Activated: rep.Activated,
		},
		auditErrors:     after.entries - before.entries,
		admitted:        after.admitted - before.admitted,
		admissionDenied: after.denied - before.denied,
		storeBytesEnd:   cl.Backend.SizeBytes(),
		decodeHits:      after.decodeHits - before.decodeHits,
		decodeMisses:    after.decodeMisses - before.decodeMisses,
		budgetExhausted: cl.Loop.BudgetExhausted(),
	}
	for _, n := range client.ErrorCounts() {
		c.clientErrors += n
	}

	sp = tr.begin("cluster.stop", root, exp)
	cl.Stop()
	tr.end(sp)
	c.pendingAfter = cl.Loop.Pending()
	c.objectsEnd = cl.Server.CacheLen()
	c.podsEnd = len(cl.Client("campaignbench").List(spec.KindPod, ""))
	return res, obs, c
}

// capture builds a workload's bootstrap snapshot the way campaign.Runner
// does: bootstrap under the canonical seed, settle, set the scenario up.
func capture(cfg cluster.Config, kind workload.Kind) *cluster.Snapshot {
	cfg = cfg.Clone()
	cfg.Seed = bootstrapSeed(kind)
	cl := cluster.New(cfg)
	cl.Loop.SetEventBudget(eventBudget)
	cl.Start()
	cl.AwaitSettled(bootstrapDeadline)
	workload.NewDriver(cl, kind).Setup()
	return cl.Snapshot()
}

// measureLayers runs the campaign once untraced on every worker, then once
// traced and sequentially, checks the two against each other, and reports the
// per-layer metrics.
func measureLayers(cfg campaign.Config, shift int64, name string, seed int) (*result, []byte, error) {
	par := untracedPass(cfg, shift, nil)
	fmt.Fprintf(os.Stderr, "campaignbench: untraced pass: %d experiments in %.2fs, tables %s\n",
		par.out.experiments, par.wall.Seconds(), par.out.hash)

	// The traced pass keeps the bootstrap snapshots the untraced pass cached,
	// so campaign.baseline times the golden runs alone and cluster.capture
	// times the benchmark's own capture.
	seq := cfg
	seq.Parallelism = 1
	tr := newTracer(false)
	setup := tr.begin("campaign.setup", -1, -1)
	p := prepare(seq, shift, nil, tr, setup)
	x := &tracedExec{
		tr:     tr,
		replay: newTracer(true),
		runner: p.runner,
		snaps:  make(map[workload.Kind]*cluster.Snapshot),
		pool:   classify.NewBufferPool(),
		every:  max(1, len(p.main)/fidelitySamples),
	}
	for _, wl := range seq.Workloads {
		sp := tr.begin("cluster.capture", setup, -1)
		x.snaps[wl] = capture(p.runner.ClusterConfig, wl)
		tr.end(sp)
	}
	p.baselines(tr, setup)
	tr.end(setup)
	prop := func(s campaign.Spec) *campaign.Result {
		sp := tr.begin("campaign.propagation", -1, -1)
		defer tr.end(sp)
		return p.runner.RunPropagation(s)
	}
	out := p.execute(1, x.run, prop, tr)
	tr.finish()
	x.replay.finish()

	base := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d", name, seed))
	for path, t := range map[string]*tracer{base + ".jsonl": tr, base + "-replay.jsonl": x.replay} {
		if err := t.write(path); err != nil {
			return nil, nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "campaignbench: traced pass: %d experiments, tables %s, spans in %s.jsonl and %s-replay.jsonl\n",
		out.experiments, out.hash, base, base)

	res := &result{
		Correct:   true,
		Attempted: par.out.experiments + out.experiments,
		Failed:    par.out.failed + out.failed,
		Metrics:   make(map[string]metric),
	}
	var problems []string
	if out.hash != par.out.hash {
		problems = append(problems, fmt.Sprintf("traced sequential pass rendered tables %s, untraced parallel pass %s", out.hash, par.out.hash))
	}
	if x.fidelityMismatch > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d checked experiments differ from Runner.RunObserved", x.fidelityMismatch, x.checked))
	}
	// Every successful write the audit counts commits one store revision, so
	// more writes than revisions means a write was counted twice.
	overcounted := 0
	for _, c := range x.counts {
		writes := 0
		for _, k := range c.exact.OK {
			writes += k
		}
		if int64(writes) > c.exact.Revisions {
			overcounted++
		}
	}
	if overcounted > 0 {
		problems = append(problems, fmt.Sprintf("%d experiments counted more audited writes than store revisions", overcounted))
	}
	if x.repeatMismatch > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d replayed experiments changed their exact counters", x.repeatMismatch, x.checked))
	}
	for _, pr := range problems {
		fmt.Fprintln(os.Stderr, "campaignbench: correctness:", pr)
		res.Correct = false
	}
	fmt.Fprintf(os.Stderr, "campaignbench: %d experiments checked against Runner.RunObserved and replayed\n", x.checked)

	layerMetrics(res.Metrics, tr, x, par, cfg.Parallelism)
	return res, out.tables, nil
}

// layerMetrics derives the per-layer metrics from the traced pass's spans and
// counters, and the worker and failure figures from the untraced pass.
func layerMetrics(m map[string]metric, tr *tracer, x *tracedExec, par passStats, workers int) {
	n := float64(len(x.counts))
	var (
		events, revisions, leases, writes, errs, ctrlW, ctrlE, schedW, schedE, kubeW, kubeE float64
		hits, misses, clientErrs, pending, objects, pods, fired, activated                  float64
		admitted, denied, storeBytes                                                        float64
		exhausted                                                                           int
	)
	for _, c := range x.counts {
		e := c.exact
		events += float64(e.Events)
		revisions += float64(e.Revisions)
		for id, k := range e.OK {
			writes += float64(k)
			switch {
			case id == "kcm":
				ctrlW += float64(k)
			case id == "scheduler":
				schedW += float64(k)
			case strings.HasPrefix(id, "kubelet-"):
				kubeW += float64(k)
			case strings.HasPrefix(id, "kcm-"), strings.HasPrefix(id, "kube-scheduler-"):
				leases += float64(k)
			}
		}
		for id, k := range e.Errors {
			switch {
			case id == "kcm":
				ctrlE += float64(k)
			case id == "scheduler":
				schedE += float64(k)
			case strings.HasPrefix(id, "kubelet-"):
				kubeE += float64(k)
			}
		}
		errs += float64(c.auditErrors)
		admitted += float64(c.admitted)
		denied += float64(c.admissionDenied)
		storeBytes += float64(c.storeBytesEnd)
		hits += float64(c.decodeHits)
		misses += float64(c.decodeMisses)
		clientErrs += float64(c.clientErrors)
		pending += float64(c.pendingAfter)
		objects += float64(c.objectsEnd)
		pods += float64(c.podsEnd)
		if c.budgetExhausted {
			exhausted++
		}
		if e.Fired {
			fired++
			if e.Activated {
				activated++
			}
		}
	}

	tot := tr.totals()
	perExp := func(name string) time.Duration {
		t := tot[name]
		if t == nil || n == 0 {
			return 0
		}
		return time.Duration(float64(t.self) / n)
	}
	perCall := func(name string) time.Duration {
		t := tot[name]
		if t == nil || t.n == 0 {
			return 0
		}
		return t.self / time.Duration(t.n)
	}
	// Allocations come from the replayed sample, the only spans that count
	// them.
	replayTot := x.replay.totals()
	allocsPerExp := func(name string) float64 {
		t := replayTot[name]
		if t == nil || x.checked == 0 {
			return 0
		}
		return float64(t.allocs) / float64(x.checked)
	}
	total := func(name string) time.Duration {
		if t := tot[name]; t != nil {
			return t.self
		}
		return 0
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	simTime := total("sim.run_until") + total("workload.drive")
	set("sim.events_per_exp", ratio(events, n), "count")
	set("sim.ns_per_event", ratio(float64(simTime), events), "ns")
	set("sim.run_ms", ms(perExp("sim.run_until")), "ms")
	set("sim.run_allocs", allocsPerExp("sim.run_until"), "count")
	set("sim.pending_after_stop", ratio(pending, n), "count")
	set("sim.budget_exhausted", float64(exhausted), "count")
	set("store.revisions_per_exp", ratio(revisions, n), "count")
	set("store.size_kb_end", ratio(storeBytes, n)/1024, "KiB")
	set("election.lease_writes_per_exp", ratio(leases, n), "count")
	set("apiserver.writes_per_exp", ratio(writes, n), "count")
	set("apiserver.errors_per_exp", ratio(errs, n), "count")
	set("apiserver.decode_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("apiserver.admission_calls_per_exp", ratio(admitted, n), "count")
	set("apiserver.admission_rejects_per_exp", ratio(denied, n), "count")
	set("codec.decodes_per_exp", ratio(misses, n), "count")
	set("apiserver.objects_end", ratio(objects, n), "count")
	set("apiserver.pods_end", ratio(pods, n), "count")
	set("controller.writes_per_exp", ratio(ctrlW, n), "count")
	set("controller.errors_per_exp", ratio(ctrlE, n), "count")
	set("scheduler.binds_per_exp", ratio(schedW, n), "count")
	set("scheduler.errors_per_exp", ratio(schedE, n), "count")
	set("kubelet.writes_per_exp", ratio(kubeW, n), "count")
	set("kubelet.errors_per_exp", ratio(kubeE, n), "count")
	set("netsim.client_errors", ratio(clientErrs, n), "count")
	set("workload.drive_ms", ms(perExp("workload.drive")), "ms")
	set("workload.drive_allocs", allocsPerExp("workload.drive"), "count")
	set("workload.client_start_us", us(perExp("workload.client_start")), "us")
	set("cluster.fork_us", us(perExp("cluster.fork")), "us")
	set("cluster.fork_allocs", allocsPerExp("cluster.fork"), "count")
	set("cluster.stop_us", us(perExp("cluster.stop")), "us")
	set("cluster.stop_allocs", allocsPerExp("cluster.stop"), "count")
	set("cluster.capture_ms", ms(perCall("cluster.capture")), "ms")
	set("inject.attach_us", us(perExp("inject.attach")), "us")
	set("inject.arm_us", us(perExp("inject.arm")), "us")
	// Every main and refinement spec carries an injection.
	set("inject.fired_ratio", ratio(fired, n), "ratio")
	set("inject.activated_ratio", ratio(activated, fired), "ratio")
	set("classify.start_us", us(perExp("classify.start")), "us")
	set("classify.finish_us", us(perExp("classify.finish")), "us")
	set("classify.finish_allocs", allocsPerExp("classify.finish"), "count")
	set("classify.decide_us", us(perExp("classify.decide")), "us")
	set("campaign.record_ms", ms(perCall("campaign.record")), "ms")
	set("campaign.generate_ms", ms(perCall("campaign.generate")), "ms")
	set("campaign.baseline_ms", ms(perCall("campaign.baseline")), "ms")
	if t := tot["campaign.experiment"]; t != nil {
		set("campaign.exp_ms", ms(t.dur/time.Duration(t.n)), "ms")
	}
	set("campaign.exp_self_us", us(perExp("campaign.experiment")), "us")
	set("campaign.exp_allocs", allocsPerExp("campaign.experiment"), "count")
	set("campaign.propagation_ms", ms(perCall("campaign.propagation")), "ms")
	set("campaign.aggregate_us", us(total("campaign.aggregate")), "us")
	set("campaign.worker_busy_ratio", float64(par.out.busy)/(float64(par.wall)*float64(workers)), "ratio")
	set("campaign.failed_ratio", ratio(float64(par.out.failed), float64(par.out.experiments)), "ratio")
	set("report.render_ms", ms(total("report.render")), "ms")

	traced := ms(percentile(x.tracedTook, 0.5))
	untraced := ms(percentile(x.untracedTook, 0.5))
	set("trace.exp_ms_p50", traced, "ms")
	set("trace.untraced_exp_ms_p50", untraced, "ms")
	set("trace.overhead_ms", traced-untraced, "ms")
}
