package store

import (
	"errors"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

func TestReplicatedConvergence(t *testing.T) {
	loop := sim.NewLoop(1)
	r := NewReplicated(loop, 3, nil)
	if _, err := r.Put("/registry/Pod/default/a", spec.KindPod, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("/registry/Pod/default/b", spec.KindPod, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	r.Delete("/registry/Pod/default/b")
	// Replication is synchronous; running the loop on must not undo it.
	loop.RunUntil(5 * time.Second)
	if !r.Converged("/registry/Pod/default/a") {
		t.Fatal("replicas did not converge on /a")
	}
	if !r.Converged("/registry/Pod/default/b") {
		t.Fatal("replicas did not converge on deleted /b")
	}
	for i := 0; i < r.Replicas(); i++ {
		kv, ok := r.Replica(i).Get("/registry/Pod/default/a")
		if !ok || string(kv.Value) != "v1" {
			t.Fatalf("replica %d: Get(/a) = %q ok=%v", i, kv.Value, ok)
		}
		if _, ok := r.Replica(i).Get("/registry/Pod/default/b"); ok {
			t.Fatalf("replica %d still has deleted /b", i)
		}
	}
}

// The §V-C1 result: a value corrupted before the consensus round is agreed
// on by all replicas — replication offers no protection.
func TestReplicatedAgreesOnCorruptValue(t *testing.T) {
	loop := sim.NewLoop(2)
	r := NewReplicated(loop, 3, nil)
	corrupted := []byte{0xde, 0xad} // stands in for a tampered transaction
	if _, err := r.Put("/registry/Pod/default/a", spec.KindPod, corrupted); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(5 * time.Second)
	for i := 0; i < r.Replicas(); i++ {
		kv, ok := r.Replica(i).Get("/registry/Pod/default/a")
		if !ok || string(kv.Value) != string(corrupted) {
			t.Fatalf("replica %d does not hold the corrupted value", i)
		}
	}
	kv, ok := r.QuorumGet("/registry/Pod/default/a")
	if !ok || string(kv.Value) != string(corrupted) {
		t.Fatal("quorum read did not return the agreed (corrupted) value")
	}
}

// The §V-C1 counterpart: at-rest corruption of one replica is masked by
// quorum reads.
func TestQuorumReadMasksSingleReplicaCorruption(t *testing.T) {
	loop := sim.NewLoop(3)
	r := NewReplicated(loop, 3, nil)
	if _, err := r.Put("/registry/Pod/default/a", spec.KindPod, []byte("good")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(5 * time.Second)
	if !r.Replica(2).CorruptAtRest("/registry/Pod/default/a", func(b []byte) []byte {
		return []byte("bad!")
	}) {
		t.Fatal("CorruptAtRest failed")
	}
	kv, ok := r.QuorumGet("/registry/Pod/default/a")
	if !ok || string(kv.Value) != "good" {
		t.Fatalf("QuorumGet = %q, want the majority value", kv.Value)
	}
	if r.Converged("/registry/Pod/default/a") {
		t.Fatal("Converged = true despite divergent replica")
	}
}

func TestReplicatedSingleNode(t *testing.T) {
	loop := sim.NewLoop(4)
	r := NewReplicated(loop, 1, nil)
	if _, err := r.Put("/k", spec.KindPod, []byte("v")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	kv, ok := r.QuorumGet("/k")
	if !ok || string(kv.Value) != "v" {
		t.Fatal("single-replica quorum read failed")
	}
}

func TestReplicatedWatchServesPrimary(t *testing.T) {
	loop := sim.NewLoop(5)
	r := NewReplicated(loop, 3, nil)
	var events []Event
	r.Watch("/", func(ev Event) { events = append(events, ev) })
	if _, err := r.Put("/k", spec.KindPod, []byte("v")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(time.Second)
	if len(events) != 1 || events[0].Type != EventPut {
		t.Fatalf("events = %+v, want one PUT", events)
	}
}

// Partition, member loss and restore are decided by Replicated's own
// liveness and reachability state alone: the loop is never advanced, so no
// timer takes part in any of the outcomes checked here.
func TestReplicatedPartitionDropRestoreWithoutTimers(t *testing.T) {
	loop := sim.NewLoop(6)
	r := NewReplicated(loop, 3, nil)
	keys := []string{"/registry/Pod/default/a", "/registry/Pod/default/b", "/registry/Pod/default/c"}
	for _, k := range keys[:2] {
		if _, err := r.Put(k, spec.KindPod, []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	checkConverged := func(when string) {
		t.Helper()
		for _, k := range keys {
			if !r.Converged(k) {
				t.Fatalf("%s: replicas diverge on %s", when, k)
			}
		}
		for i := 1; i < r.Replicas(); i++ {
			if r.RevisionAt(i) != r.RevisionAt(0) {
				t.Fatalf("%s: replica %d at revision %d, replica 0 at %d", when, i, r.RevisionAt(i), r.RevisionAt(0))
			}
		}
	}

	// Replica 0 is cut off: the minority origin cannot write, but still
	// serves its (stale) local view.
	r.Partition([]int{0}, []int{1, 2})
	if _, err := r.PutVia(0, keys[0], spec.KindPod, []byte("minority")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("minority PutVia err = %v, want ErrNoQuorum", err)
	}
	if _, err := r.DeleteVia(0, keys[1]); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("minority DeleteVia err = %v, want ErrNoQuorum", err)
	}

	// The majority side keeps committing.
	if _, err := r.PutVia(1, keys[0], spec.KindPod, []byte("v2")); err != nil {
		t.Fatalf("majority PutVia: %v", err)
	}
	if _, err := r.PutVia(2, keys[2], spec.KindPod, []byte("v1")); err != nil {
		t.Fatalf("majority PutVia: %v", err)
	}
	if ok, err := r.DeleteVia(1, keys[1]); !ok || err != nil {
		t.Fatalf("majority DeleteVia = %v, %v", ok, err)
	}
	if kv, ok, err := r.GetFrom(0, keys[0]); err != nil || !ok || string(kv.Value) != "v1" {
		t.Fatalf("isolated GetFrom = %q ok=%v err=%v, want stale v1", kv.Value, ok, err)
	}
	if kv, ok, _ := r.GetFrom(1, keys[0]); !ok || string(kv.Value) != "v2" {
		t.Fatalf("majority GetFrom = %q ok=%v, want v2", kv.Value, ok)
	}

	// Heal replays the queued ops on replica 0 in commit order.
	r.Heal()
	checkConverged("after heal")
	if _, ok, _ := r.GetFrom(0, keys[1]); ok {
		t.Fatal("delete committed during the partition did not reach replica 0")
	}

	// A lost member refuses access, but quorum reads still answer from the
	// surviving majority, and writes still land on it.
	r.DropReplica(2)
	if _, _, err := r.GetFrom(2, keys[0]); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("GetFrom on dropped replica err = %v, want ErrReplicaDown", err)
	}
	if kv, ok := r.QuorumGet(keys[0]); !ok || string(kv.Value) != "v2" {
		t.Fatalf("QuorumGet = %q ok=%v, want majority v2", kv.Value, ok)
	}
	if _, err := r.PutVia(0, keys[2], spec.KindPod, []byte("v3")); err != nil {
		t.Fatalf("PutVia with one member lost: %v", err)
	}

	// Restore is a state transfer from a live member.
	r.RestoreReplica(2)
	checkConverged("after restore")
	if kv, ok, err := r.GetFrom(2, keys[2]); err != nil || !ok || string(kv.Value) != "v3" {
		t.Fatalf("restored GetFrom = %q ok=%v err=%v, want v3", kv.Value, ok, err)
	}
	if loop.Now() != 0 || loop.EventsExecuted() != 0 {
		t.Fatalf("loop advanced to %v after %d events", loop.Now(), loop.EventsExecuted())
	}
}
