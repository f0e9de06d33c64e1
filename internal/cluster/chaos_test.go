package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"nomad/internal/netsim"
)

func TestParseChaos(t *testing.T) {
	spec, err := ParseChaos("kill:rank=2,at=mid-epoch")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Op != OpKill || spec.Rank != 2 || spec.At != PointMidEpoch {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.After != 5 {
		t.Fatalf("mid-epoch default After = %d, want 5", spec.After)
	}
	spec, err = ParseChaos("drop:rank=1,at=snapshot,p=0.25,seed=9,after=3")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Op != OpDrop || spec.P != 0.25 || spec.Seed != 9 || spec.After != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	spec, err = ParseChaos("partition:rank=0,at=barrier,window=120ms")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Op != OpPartition || spec.At != PointBarrier || spec.Window != 120*time.Millisecond {
		t.Fatalf("spec = %+v", spec)
	}
	if spec, err := ParseChaos(""); spec != nil || err != nil {
		t.Fatalf("empty spec = %+v, %v", spec, err)
	}
	for _, bad := range []string{
		"explode:rank=1,at=barrier", // unknown op
		"kill",                      // no pairs
		"kill:rank=1",               // missing at
		"kill:at=barrier",           // missing rank
		"kill:rank=1,at=nowhere",    // unknown point
		"kill:rank=1,at=barrier,after=x",
		"kill:rank=1,at=barrier,bogus=1",
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

// TestChaosKillDeterministic: the kill fires on exactly the After-th
// victim send, exactly once, on every run with the same spec.
func TestChaosKillDeterministic(t *testing.T) {
	for run := 0; run < 3; run++ {
		spec, err := ParseChaos("kill:rank=1,at=mid-epoch,after=3")
		if err != nil {
			t.Fatal(err)
		}
		c := NewSimCluster(2, netsim.Instant(), 2)
		ctrl := NewChaosController(spec)
		killedAt := -1
		var victim int
		ctrl.OnKill(func(v int) { victim = v })
		links := ctrl.WrapAll(c.Links())
		for s := 1; s <= 5; s++ {
			if err := links[1].Send(0, TokenBatch{}); err != nil {
				t.Fatal(err)
			}
			if ctrl.Fired() && killedAt < 0 {
				killedAt = s
			}
		}
		if killedAt != 3 {
			t.Fatalf("run %d: kill fired at send %d, want 3", run, killedAt)
		}
		if victim != 1 {
			t.Fatalf("run %d: kill function got victim %d, want 1", run, victim)
		}
		// Non-victim sends never count.
		if ctrl.sends.Load() != 3 {
			t.Fatalf("run %d: victim send count %d, want 3 (counting stops at fire)", run, ctrl.sends.Load())
		}
		c.Close()
	}
}

// TestChaosDelaySlowsVictimSends: after the trigger, every victim
// send stalls by the window; other ranks are untouched.
func TestChaosDelaySlowsVictimSends(t *testing.T) {
	spec, err := ParseChaos("delay:rank=0,at=mid-epoch,after=1,window=30ms")
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCluster(2, netsim.Instant(), 2)
	defer c.Close()
	ctrl := NewChaosController(spec)
	links := ctrl.WrapAll(c.Links())
	if err := links[0].Send(1, TokenBatch{}); err != nil { // fires the trigger
		t.Fatal(err)
	}
	start := time.Now()
	if err := links[0].Send(1, TokenBatch{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("victim send took %v, want ≥ ~30ms delay", d)
	}
	start = time.Now()
	if err := links[1].Send(0, TokenBatch{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("non-victim send took %v, should be unaffected", d)
	}
}

// TestChaosDropOnlySnapshots: OpDrop may only lose the lossy-tolerant
// replication plane — the registered snapshot kind — never other
// control frames.
func TestChaosDropOnlySnapshots(t *testing.T) {
	spec, err := ParseChaos("drop:rank=0,at=snapshot,p=1.0,after=1")
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCluster(2, netsim.Instant(), 2)
	defer c.Close()
	ctrl := NewChaosController(spec)
	const snapKind = 40
	ctrl.SetSnapshotKind(snapKind)
	links := ctrl.WrapAll(c.Links())
	// First snapshot fires the trigger; with p=1 every later snapshot
	// is dropped, while a non-snapshot ctl frame sails through.
	for i := 0; i < 3; i++ {
		if err := links[0].SendCtl(1, snapKind, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := links[0].SendCtl(1, 7, []byte{2}); err != nil {
		t.Fatal(err)
	}
	ct := <-links[1].Ctl()
	if ct.Kind != 7 {
		t.Fatalf("survivor got kind %d first, want only the non-snapshot frame (7)", ct.Kind)
	}
	select {
	case ct := <-links[1].Ctl():
		// At most the pre-trigger snapshot may arrive; 40 after the
		// first means drops failed.
		if ct.Kind == snapKind {
			t.Fatal("a post-trigger snapshot frame leaked through OpDrop")
		}
	default:
	}
}

// TestChaosScheduleCountsFromArming: each event of a mid-epoch schedule
// counts its After sends from its own arming, and a send that finds
// the counter already past the threshold still fires it. Concurrent
// senders can move the counter past the threshold while the event is
// being armed, before any of them checks against the new baseline; a
// trigger that fired only on the exact threshold count then never
// fired at all.
func TestChaosScheduleCountsFromArming(t *testing.T) {
	spec, err := ParseChaos("join@mid-epoch;drain@mid-epoch")
	if err != nil {
		t.Fatal(err)
	}
	c := NewChaosController(spec)
	after := c.events[1].After
	joins, drains := 0, 0
	c.OnJoin(func(int) {
		joins++
		// Sends observed after the join fired but before the drain is
		// armed must not count toward the drain.
		for s := 0; s < 2*after; s++ {
			c.observe(PointMidEpoch, 0)
		}
	})
	c.OnDrain(func(int) { drains++ })
	c.Arm(nil)
	for s := 0; s < c.events[0].After; s++ {
		c.observe(PointMidEpoch, 0)
	}
	if joins != 1 || drains != 0 {
		t.Fatalf("after the join's sends: %d joins, %d drains; want 1, 0", joins, drains)
	}
	// Senders racing the drain's arming: the counter passes the
	// threshold without a check against the armed baseline.
	c.sends.Add(int64(after) + 2)
	c.observe(PointMidEpoch, 0)
	if drains != 1 {
		t.Fatalf("a send past the drain's threshold fired %d drains, want 1", drains)
	}
	c.observe(PointMidEpoch, 0)
	if joins != 1 || drains != 1 || !c.Done() {
		t.Fatalf("%d joins, %d drains, done %v; want each once", joins, drains, c.Done())
	}
}

// TestChaosScheduleConcurrentSends drives a three-event mid-epoch
// schedule from several senders at once: every event fires exactly
// once, in order, however the senders interleave with the arming.
func TestChaosScheduleConcurrentSends(t *testing.T) {
	spec, err := ParseChaos("join@mid-epoch;drain@mid-epoch;join@mid-epoch")
	if err != nil {
		t.Fatal(err)
	}
	c := NewChaosController(spec)
	var mu sync.Mutex
	var order []string
	note := func(op string) func(int) {
		return func(int) {
			mu.Lock()
			order = append(order, op)
			mu.Unlock()
		}
	}
	c.OnJoin(note("join"))
	c.OnDrain(note("drain"))
	c.Arm(nil)
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.observe(PointMidEpoch, rank)
			}
		}(s)
	}
	wg.Wait()
	if got := strings.Join(order, ","); got != "join,drain,join" || !c.Done() {
		t.Fatalf("fired %q (done %v), want join,drain,join", got, c.Done())
	}
}
