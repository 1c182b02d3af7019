package scheduler

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
)

func newScheduler(t *testing.T) (*sim.Loop, *apiserver.Client, *Scheduler) {
	t.Helper()
	loop := sim.NewLoop(1)
	st := store.New(loop, nil)
	srv := apiserver.New(loop, st, nil)
	s := New(loop, srv, Options{})
	c := srv.ClientFor("test")
	for i, name := range []string{"worker-0", "worker-1"} {
		node := &spec.Node{
			Metadata: spec.ObjectMeta{Name: name, Labels: map[string]string{"zone": []string{"a", "b"}[i]}},
			Status: spec.NodeStatus{
				Ready: true, AllocatableMilliCPU: 4000, AllocatableMemMB: 2048,
				LastHeartbeatMillis: loop.Time().UnixMilli(),
			},
		}
		if err := c.Create(node); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	loop.RunUntil(5 * time.Second)
	return loop, c, s
}

func pendingPod(name string, cpu int64) *spec.Pod {
	return &spec.Pod{
		Metadata: spec.ObjectMeta{Name: name, Namespace: spec.DefaultNamespace},
		Spec: spec.PodSpec{Containers: []spec.Container{{
			Name: "c", Image: "registry.local/web:1", Command: []string{"serve"},
			RequestsMilliCPU: cpu, RequestsMemMB: 128,
		}}},
	}
}

func nodeOf(t *testing.T, c *apiserver.Client, name string) string {
	t.Helper()
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, name)
	if err != nil {
		t.Fatal(err)
	}
	return obj.(*spec.Pod).Spec.NodeName
}

func TestBindsPendingPod(t *testing.T) {
	loop, c, _ := newScheduler(t)
	if err := c.Create(pendingPod("web-1", 500)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	if n := nodeOf(t, c, "web-1"); n == "" {
		t.Fatal("pod not scheduled")
	}
}

func TestSpreadsByLeastAllocated(t *testing.T) {
	loop, c, _ := newScheduler(t)
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := c.Create(pendingPod(name, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 3*time.Second)
	counts := map[string]int{}
	for _, name := range []string{"a", "b", "c", "d"} {
		counts[nodeOf(t, c, name)]++
	}
	if counts["worker-0"] != 2 || counts["worker-1"] != 2 {
		t.Fatalf("placement %v, want an even spread", counts)
	}
}

func TestRespectsNodeSelector(t *testing.T) {
	loop, c, _ := newScheduler(t)
	p := pendingPod("picky", 100)
	p.Spec.NodeSelector = map[string]string{"zone": "b"}
	if err := c.Create(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	if n := nodeOf(t, c, "picky"); n != "worker-1" {
		t.Fatalf("scheduled on %q, want worker-1 (zone=b)", n)
	}
}

func TestRespectsTaints(t *testing.T) {
	loop, c, _ := newScheduler(t)
	obj, _ := c.Get(spec.KindNode, "", "worker-0")
	node := spec.CloneForWriteAs(obj.(*spec.Node))
	node.Spec.Taints = []spec.Taint{{Key: "dedicated", Effect: spec.TaintNoSchedule}}
	if err := c.Update(node); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	for _, name := range []string{"a", "b", "c"} {
		if err := c.Create(pendingPod(name, 100)); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	for _, name := range []string{"a", "b", "c"} {
		if n := nodeOf(t, c, name); n != "worker-1" {
			t.Fatalf("pod %s on tainted node %q", name, n)
		}
	}
}

func TestUnschedulableStaysPending(t *testing.T) {
	loop, c, _ := newScheduler(t)
	if err := c.Create(pendingPod("huge", 9000)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 5*time.Second)
	if n := nodeOf(t, c, "huge"); n != "" {
		t.Fatalf("infeasible pod bound to %q", n)
	}
}

func TestPreemptionEvictsLowerPriority(t *testing.T) {
	loop, c, _ := newScheduler(t)
	// Fill both nodes.
	for _, name := range []string{"a", "b"} {
		if err := c.Create(pendingPod(name, 3500)); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 3*time.Second)
	// A high-priority pod arrives with nowhere to fit.
	p := pendingPod("vip", 3000)
	p.Spec.Priority = 1000
	if err := c.Create(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 5*time.Second)
	if n := nodeOf(t, c, "vip"); n == "" {
		t.Fatal("high-priority pod not scheduled after preemption")
	}
	// One victim must be gone.
	survivors := 0
	for _, name := range []string{"a", "b"} {
		if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, name); err == nil {
			survivors++
		}
	}
	if survivors != 1 {
		t.Fatalf("%d low-priority pods survived, want 1", survivors)
	}
}

// Pods bound by someone else (daemon pods, external binders) must be
// absorbed into the cache without triggering the corruption self-check.
func TestExternallyBoundPodDoesNotRestart(t *testing.T) {
	loop, c, s := newScheduler(t)
	bound := pendingPod("daemon-1", 100)
	bound.Spec.NodeName = "worker-0"
	if err := c.Create(bound); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	if s.Restarts() != 0 {
		t.Fatalf("restarts = %d for an externally bound pod, want 0", s.Restarts())
	}
	if !s.IsRunning() {
		t.Fatal("scheduler stopped")
	}
}

func TestRestartAfterStoreMovesPod(t *testing.T) {
	// Rebuild the harness with validation disabled so the nodeName change
	// lands in the store like an apiserver→etcd injection.
	loop := sim.NewLoop(2)
	st := store.New(loop, nil)
	srv := apiserver.New(loop, st, &apiserver.Options{DisableValidation: true})
	s := New(loop, srv, Options{})
	c := srv.ClientFor("test")
	for _, name := range []string{"worker-0", "worker-1"} {
		node := &spec.Node{
			Metadata: spec.ObjectMeta{Name: name},
			Status: spec.NodeStatus{Ready: true, AllocatableMilliCPU: 4000,
				AllocatableMemMB: 2048, LastHeartbeatMillis: loop.Time().UnixMilli()},
		}
		if err := c.Create(node); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	loop.RunUntil(5 * time.Second)
	if err := c.Create(pendingPod("web-1", 500)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil {
		t.Fatal(err)
	}
	pod := spec.CloneForWriteAs(obj.(*spec.Pod))
	if pod.Spec.NodeName == "" {
		t.Fatal("setup: not scheduled")
	}
	pod.Spec.NodeName = "ghost-node"
	if err := c.Update(pod); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	if s.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1 after cache mismatch", s.Restarts())
	}
	if s.IsRunning() {
		t.Fatal("scheduler still running immediately after restart")
	}
	// A new leader takes over after the stale lease expires (~20s).
	loop.RunUntil(loop.Now() + 40*time.Second)
	if !s.IsRunning() {
		t.Fatal("scheduler did not recover after restart")
	}
}

// The pending set is walked in key order whatever order the pods arrived
// in: with room for four of six pods, the four lowest keys bind.
func TestBindsLowestKeysFirst(t *testing.T) {
	loop, c, _ := newScheduler(t)
	names := []string{"p-5", "p-4", "p-3", "p-2", "p-1", "p-0"}
	for _, name := range names {
		if err := c.Create(pendingPod(name, 2000)); err != nil { // two fit per node
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + 2*time.Second)
	for _, name := range names {
		bound := nodeOf(t, c, name) != ""
		if want := name < "p-4"; bound != want {
			t.Errorf("%s bound = %v, want %v", name, bound, want)
		}
	}
}

// A pending entry carries the view's current pod: once an update clears the
// selector that named no node, the very next pass schedules the new object.
func TestPendingPodRescheduledAfterSelectorUpdate(t *testing.T) {
	loop, c, _ := newScheduler(t)
	p := pendingPod("picky", 100)
	p.Spec.NodeSelector = map[string]string{"disk": "ssd"} // no node has it
	if err := c.Create(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	if n := nodeOf(t, c, "picky"); n != "" {
		t.Fatalf("pod bound to %q although no node matches its selector", n)
	}
	obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "picky")
	upd := spec.CloneForWriteAs(obj.(*spec.Pod))
	upd.Spec.NodeSelector = nil
	if err := c.Update(upd); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + schedulePeriod + 10*time.Millisecond)
	if n := nodeOf(t, c, "picky"); n == "" {
		t.Fatal("pod not bound on the tick after its selector was cleared")
	}
}

// A pending pod that fails leaves the pending set and is never bound, even
// once it would fit.
func TestFailedPendingPodIsDropped(t *testing.T) {
	loop, c, s := newScheduler(t)
	p := pendingPod("doomed", 100)
	p.Spec.NodeSelector = map[string]string{"disk": "ssd"}
	if err := c.Create(p); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	if len(s.pending) != 1 {
		t.Fatalf("pending = %d entries, want 1", len(s.pending))
	}
	update := func(mutate func(*spec.Pod)) {
		t.Helper()
		obj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "doomed")
		if err != nil {
			t.Fatal(err)
		}
		upd := spec.CloneForWriteAs(obj.(*spec.Pod))
		mutate(upd)
		if err := c.Update(upd); err != nil {
			t.Fatal(err)
		}
	}
	update(func(p *spec.Pod) { p.Status.Phase = spec.PodFailed })
	loop.RunUntil(loop.Now() + 2*schedulePeriod)
	if len(s.pending) != 0 {
		t.Fatalf("failed pod still pending: %d entries", len(s.pending))
	}
	update(func(p *spec.Pod) { p.Spec.NodeSelector = nil })
	loop.RunUntil(loop.Now() + 2*time.Second)
	if n := nodeOf(t, c, "doomed"); n != "" {
		t.Fatalf("failed pod bound to %q", n)
	}
}

// A bind can re-enter the scheduler mid-pass: when the scheduler's apiserver
// has crashed unnoticed, the bind fails over to a survivor, and the migrated
// watch replays the survivor's state into the view synchronously, inside
// the write. The replay brings pods the crashed server never announced and
// a pending pod bound elsewhere meanwhile; the running pass must skip the
// bound one, and the new ones must join the pending set and bind after it.
func TestPassSurvivesFailoverReplay(t *testing.T) {
	loop := sim.NewLoop(3)
	rep := store.NewReplicated(loop, 3, nil)
	var servers []*apiserver.Server
	for i := 0; i < 3; i++ {
		srv := apiserver.NewAt(loop, rep, i, nil)
		srv.SetAdmissionStride(i, 3)
		servers = append(servers, srv)
	}
	s := New(loop, apiserver.NewEndpoints(loop, servers...), Options{DisableLeaderElection: true})
	c := servers[1].ClientFor("test") // homed on a survivor
	for _, name := range []string{"worker-0", "worker-1"} {
		node := &spec.Node{
			Metadata: spec.ObjectMeta{Name: name},
			Status: spec.NodeStatus{Ready: true, AllocatableMilliCPU: 4000,
				AllocatableMemMB: 2048, LastHeartbeatMillis: loop.Time().UnixMilli()},
		}
		if err := c.Create(node); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	loop.RunUntil(5 * time.Second)
	picky := []string{"p-0", "p-1", "p-2", "p-3"}
	for _, name := range picky {
		p := pendingPod(name, 100)
		p.Spec.NodeSelector = map[string]string{"disk": "ssd"} // no node has it yet
		if err := c.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntil(loop.Now() + time.Second)
	if len(s.pending) != len(picky) {
		t.Fatalf("pending = %d entries, want %d", len(s.pending), len(picky))
	}
	// Label a node, and crash the scheduler's apiserver as soon as its view
	// has seen the label, before the next pass: that pass's first bind is
	// the scheduler's first request to the crashed server.
	obj, _ := c.Get(spec.KindNode, "", "worker-0")
	node := spec.CloneForWriteAs(obj.(*spec.Node))
	node.Metadata.Labels = map[string]string{"disk": "ssd"}
	if err := c.Update(node); err != nil {
		t.Fatal(err)
	}
	for {
		if o, ok := s.views.Get(spec.KindNode, "", "worker-0"); ok && o.Meta().Labels["disk"] == "ssd" {
			break
		}
		if !loop.Step() {
			t.Fatal("loop drained before the view saw the label")
		}
	}
	servers[0].SetDown(true)
	// Pods the crashed server never announces, keyed before, between and
	// after the pending ones, and a pending pod bound by someone else.
	unseen := []string{"a-0", "a-1", "p-1a", "z-0"}
	for _, name := range unseen {
		if err := c.Create(pendingPod(name, 100)); err != nil {
			t.Fatal(err)
		}
	}
	obj, _ = c.Get(spec.KindPod, spec.DefaultNamespace, "p-2")
	taken := spec.CloneForWriteAs(obj.(*spec.Pod))
	taken.Spec.NodeName = "worker-1"
	if err := c.Update(taken); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	for _, name := range picky {
		want := "worker-0"
		if name == "p-2" {
			want = "worker-1"
		}
		if n := nodeOf(t, c, name); n != want {
			t.Errorf("%s bound to %q, want %s", name, n, want)
		}
	}
	for _, name := range unseen {
		if n := nodeOf(t, c, name); n == "" {
			t.Errorf("%s never bound", name)
		}
	}
	if len(s.pending) != 0 {
		t.Fatalf("pending = %d entries after every pod bound", len(s.pending))
	}
	if s.Restarts() != 0 {
		t.Fatalf("restarts = %d, want 0", s.Restarts())
	}
}
