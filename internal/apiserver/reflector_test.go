package apiserver

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/spec"
)

func newPodReflector(t *testing.T) (*Reflector, *Client, func(deadline time.Duration), *[]WatchEvent) {
	t.Helper()
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	var seen []WatchEvent
	r := NewReflector(loop, c, 0, func(ev WatchEvent) { seen = append(seen, ev) }, spec.KindPod)
	r.Start()
	return r, c, func(d time.Duration) { loop.RunUntil(loop.Now() + d) }, &seen
}

func TestReflectorMirrorsWatch(t *testing.T) {
	r, c, run, seen := newPodReflector(t)
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	obj, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if !ok {
		t.Fatal("view missing created pod")
	}
	if !obj.Meta().Sealed() {
		t.Fatal("view must hold the sealed cache instance")
	}
	if len(*seen) != 1 || (*seen)[0].Type != Added {
		t.Fatalf("events = %+v, want one Added", *seen)
	}
	if err := c.Delete(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	if _, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); ok {
		t.Fatal("view kept a deleted pod")
	}
	if r.Len(spec.KindPod) != 0 {
		t.Fatalf("Len = %d after delete", r.Len(spec.KindPod))
	}
}

// A resync that runs while a watch event is still in flight (committed,
// server cache updated, fan-out pending) must repair the view from the
// server's state, and the late event must apply idempotently afterwards.
func TestReflectorResyncOverlapsInFlightEvent(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	var seen []WatchEvent
	r := NewReflector(loop, c, 0, func(ev WatchEvent) { seen = append(seen, ev) }, spec.KindPod)
	r.Start()

	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	before := r.ResyncRepairs()

	// Commit an update, then advance the loop one event at a time until the
	// server cache holds the new revision while the reflector still holds
	// the old one — i.e. the fan-out delivery is still pending.
	obj, _ := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	upd := spec.CloneForWriteAs(obj.(*spec.Pod))
	upd.Spec.NodeName = "worker-0"
	if err := c.Update(upd); err != nil {
		t.Fatal(err)
	}
	inFlight := false
	for i := 0; i < 100; i++ {
		srvObj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
		viewObj, _ := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
		if err == nil && srvObj.(*spec.Pod).Spec.NodeName == "worker-0" &&
			viewObj.(*spec.Pod).Spec.NodeName == "" {
			inFlight = true
			break
		}
		if !loop.Step() {
			break
		}
	}
	if !inFlight {
		t.Fatal("could not catch the window with the fan-out pending")
	}

	// Resync in that window: the view must be repaired from the server even
	// though the live event has not arrived yet.
	r.Resync()
	if got := r.ResyncRepairs() - before; got != 1 {
		t.Fatalf("resync repaired %d entries, want 1", got)
	}
	viewObj, _ := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if viewObj.(*spec.Pod).Spec.NodeName != "worker-0" {
		t.Fatal("resync did not repair the stale entry")
	}

	// The in-flight event now arrives; applying it is idempotent.
	loop.RunUntil(loop.Now() + time.Second)
	viewObj, _ = r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if viewObj.(*spec.Pod).Spec.NodeName != "worker-0" {
		t.Fatal("late watch event corrupted the repaired view")
	}
	// Both the synthetic repair and the live delivery are announced.
	mods := 0
	for _, ev := range seen {
		if ev.Type == Modified {
			mods++
		}
	}
	if mods != 2 {
		t.Fatalf("observed %d Modified events, want 2 (repair + live)", mods)
	}
}

// A notification lost on the watch channel leaves the view stale; the next
// resync re-list must repair it — the informer-staleness recovery path the
// watch-channel fault surface relies on.
func TestReflectorRecoversFromDroppedWatchEvent(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	drops := 0
	armed := true
	srv.SetWatchHook(func(m *Message) Action {
		if armed && m.Kind == spec.KindPod {
			armed = false
			drops++
			return Drop
		}
		return Pass
	})
	r := NewReflector(loop, c, 2*time.Second, nil, spec.KindPod)
	r.Start()

	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	if drops != 1 {
		t.Fatalf("watch hook dropped %d events, want 1", drops)
	}
	if _, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); ok {
		t.Fatal("view saw the pod although the notification was dropped")
	}
	// The server itself is not stale — only the subscribers are.
	if _, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); err != nil {
		t.Fatalf("server lost the object: %v", err)
	}

	// The periodic resync re-list repairs the view.
	loop.RunUntil(loop.Now() + 3*time.Second)
	if _, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1"); !ok {
		t.Fatal("resync did not recover the dropped notification")
	}
	if r.ResyncRepairs() == 0 {
		t.Fatal("recovery not accounted as a resync repair")
	}
}

// A tampered watch payload reaches subscribers as a private corrupted
// instance while the server cache keeps the truth; the resync then repairs
// the subscribers — watch-channel corruption is transient by architecture.
func TestWatchTamperIsInvisibleToServerAndRepairedByResync(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	tampered := false
	srv.SetWatchHook(func(m *Message) Action {
		if !tampered && m.Kind == spec.KindPod && len(m.Data) > 0 {
			tampered = true
			obj := spec.New(m.Kind)
			if err := codecUnmarshal(m.Data, obj); err != nil {
				t.Fatalf("decode watch payload: %v", err)
			}
			obj.(*spec.Pod).Spec.NodeName = "ghost-node"
			m.Data = mustMarshal(obj)
			m.Tampered = true
		}
		return Pass
	})
	r := NewReflector(loop, c, 2*time.Second, nil, spec.KindPod)
	r.Start()

	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(loop.Now() + time.Second)
	viewObj, ok := r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if !ok {
		t.Fatal("view missing pod")
	}
	if viewObj.(*spec.Pod).Spec.NodeName != "ghost-node" {
		t.Fatal("subscriber did not observe the tampered payload")
	}
	if !viewObj.Meta().Sealed() {
		t.Fatal("tampered instance must be sealed before delivery")
	}
	srvObj, err := c.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if err != nil || srvObj.(*spec.Pod).Spec.NodeName != "" {
		t.Fatal("tampering leaked into the server cache")
	}
	// Resync restores the subscribers' truth.
	loop.RunUntil(loop.Now() + 3*time.Second)
	viewObj, _ = r.Get(spec.KindPod, spec.DefaultNamespace, "web-1")
	if viewObj.(*spec.Pod).Spec.NodeName != "ghost-node" && r.ResyncRepairs() == 0 {
		t.Fatal("repair happened but was not accounted")
	}
	if viewObj.(*spec.Pod).Spec.NodeName == "ghost-node" {
		t.Fatal("resync did not repair the corrupted view entry")
	}
}

// Stop detaches the view: later events must not mutate it.
func TestReflectorStopDetaches(t *testing.T) {
	r, c, run, _ := newPodReflector(t)
	if err := c.Create(testPod("web-1")); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	r.Stop()
	if err := c.Create(testPod("web-2")); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	if r.Len(spec.KindPod) != 1 {
		t.Fatalf("stopped view tracked new events: Len = %d", r.Len(spec.KindPod))
	}
}

// appIndex buckets pods by "namespace/app-label"; unlabelled pods stay out.
func appIndex(o spec.Object) string {
	meta := o.Meta()
	app, ok := meta.Labels["app"]
	if !ok {
		return ""
	}
	return meta.Namespace + "/" + app
}

// The secondary index is exact through every way the view changes: a
// randomized run of creates, relabels that move pods between buckets,
// deletes, a dropped watch event repaired by Resync, and a Stop/Start
// re-prime. After every step each bucket must equal the view filtered by
// the index function, element for element and in view order, and no
// unindexed pod may sit in any bucket.
func TestReflectorIndexMatchesFilteredView(t *testing.T) {
	loop, _, srv := newTestServer(t)
	c := srv.ClientFor("reflector-test")
	dropNext := false
	srv.SetWatchHook(func(m *Message) Action {
		if dropNext && m.Kind == spec.KindPod {
			dropNext = false
			return Drop
		}
		return Pass
	})
	r := NewReflector(loop, c, 0, nil, spec.KindPod)
	r.SetIndex(spec.KindPod, appIndex)
	r.Start()
	run := func() { loop.RunUntil(loop.Now() + 100*time.Millisecond) }

	check := func(step string) {
		t.Helper()
		values := map[string]bool{}
		r.ForEach(spec.KindPod, "", func(o spec.Object) bool {
			if v := appIndex(o); v != "" {
				values[v] = true
			}
			return true
		})
		for v := range r.index.buckets {
			values[v] = true // a bucket no view object maps to must be empty
		}
		for v := range values {
			var want, got []spec.Object
			r.ForEach(spec.KindPod, "", func(o spec.Object) bool {
				if appIndex(o) == v {
					want = append(want, o)
				}
				return true
			})
			r.ForEachIndexed(v, func(o spec.Object) bool {
				got = append(got, o)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("%s: bucket %q holds %d objects, view filter %d", step, v, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: bucket %q[%d] = %s, view filter has %s", step, v, i,
						got[i].Meta().NamespacedName(), want[i].Meta().NamespacedName())
				}
			}
		}
		r.ForEach(spec.KindPod, "", func(o spec.Object) bool {
			if appIndex(o) != "" {
				return true
			}
			key := o.Meta().NamespacedName()
			for v, b := range r.index.buckets {
				if _, ok := b.get(key); ok {
					t.Fatalf("%s: unindexed pod %s sits in bucket %q", step, key, v)
				}
			}
			return true
		})
	}

	rng := rand.New(rand.NewSource(7))
	namespaces := []string{spec.DefaultNamespace, "team-b"}
	apps := []string{"web", "db", "cache", ""} // "" = no app label
	labels := func() map[string]string {
		app := apps[rng.Intn(len(apps))]
		if app == "" {
			return map[string]string{"tier": "misc"}
		}
		return map[string]string{"app": app}
	}
	// Names are drawn in random order so creates insert mid-bucket, not
	// only at the end.
	names := rng.Perm(200)
	next := 0
	create := func() {
		p := testPod(fmt.Sprintf("pod-%03d", names[next]))
		next++
		p.Metadata.Namespace = namespaces[rng.Intn(len(namespaces))]
		p.Metadata.Labels = labels()
		if err := c.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	pick := func() *spec.Pod {
		pods := c.List(spec.KindPod, "")
		if len(pods) == 0 {
			return nil
		}
		return pods[rng.Intn(len(pods))].(*spec.Pod)
	}
	relabel := func() {
		if p := pick(); p != nil {
			upd := spec.CloneForWriteAs(p)
			upd.Metadata.Labels = labels()
			if err := c.Update(upd); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func() {
		if p := pick(); p != nil {
			if err := c.Delete(spec.KindPod, p.Metadata.Namespace, p.Metadata.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(i int) {
		switch n := rng.Intn(10); {
		case n < 4:
			create()
		case n < 8:
			relabel()
		default:
			remove()
		}
		run()
		check(fmt.Sprintf("step %d", i))
	}

	for i := 0; i < 60; i++ {
		step(i)
	}
	// A dropped event leaves the view (and so the index) stale but still
	// consistent with each other; Resync repairs both.
	for i := 0; i < 5; i++ {
		dropNext = true
		relabel()
		run()
		check(fmt.Sprintf("dropped event %d", i))
		r.Resync()
		check(fmt.Sprintf("resync %d", i))
	}
	if r.ResyncRepairs() == 0 {
		t.Fatal("no dropped event needed a repair")
	}
	for i := 60; i < 100; i++ {
		step(i)
	}
	// Stopped, the view detaches while the server moves on; Start re-primes
	// view and index from scratch.
	r.Stop()
	for i := 0; i < 20; i++ {
		[]func(){create, relabel, remove}[rng.Intn(3)]()
		run()
	}
	check("stopped")
	r.Start()
	check("restarted")
	if got, want := r.Len(spec.KindPod), len(c.List(spec.KindPod, "")); got != want {
		t.Fatalf("re-primed view holds %d pods, server %d", got, want)
	}
	for i := 100; i < 140; i++ {
		step(i)
	}
}
