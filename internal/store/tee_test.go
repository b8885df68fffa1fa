package store

import (
	"fmt"
	"testing"
	"time"
)

func TestLogAppendSinceAndTrim(t *testing.T) {
	l := NewLog(7, 4)
	if l.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", l.Epoch())
	}
	for i := 0; i < 6; i++ {
		seq := l.Append(Op{Kind: OpPut, ID: fmt.Sprintf("c%d", i)})
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	if l.Seq() != 6 {
		t.Fatalf("Seq = %d, want 6", l.Seq())
	}
	// Retain 4: ops 3..6 are live, 1..2 trimmed.
	if _, ok := l.Since(1, 0); ok {
		t.Fatal("Since(1) should report the feed trimmed")
	}
	ops, ok := l.Since(2, 0)
	if !ok || len(ops) != 4 || ops[0].Seq != 3 || ops[3].Seq != 6 {
		t.Fatalf("Since(2) = %v ops (ok=%v), want seqs 3..6", len(ops), ok)
	}
	ops, ok = l.Since(4, 1)
	if !ok || len(ops) != 1 || ops[0].Seq != 5 {
		t.Fatalf("Since(4, max 1): got %d ops (ok=%v)", len(ops), ok)
	}
	if ops, ok := l.Since(6, 0); !ok || len(ops) != 0 {
		t.Fatalf("Since(head) should be empty and ok, got %d ops ok=%v", len(ops), ok)
	}
}

// TestLogAppendFullAmortized: once the feed is full, Append reslices its
// retained window instead of copying it, so appends allocate only when
// append's amortized growth reallocates — and the retain boundary that
// Since reports stays exact.
func TestLogAppendFullAmortized(t *testing.T) {
	const retain = 1024
	l := NewLog(1, retain)
	for i := 0; i < 2*retain; i++ {
		l.Append(Op{Kind: OpRemove, ID: "c"})
	}
	allocs := testing.AllocsPerRun(2*retain, func() { l.Append(Op{Kind: OpRemove, ID: "c"}) })
	if allocs > 0.1 {
		t.Fatalf("Append on a full log: %.3f allocs/op, want amortized ~0", allocs)
	}
	last := l.Seq()
	if _, ok := l.Since(last-retain-1, 0); ok {
		t.Fatalf("Since(%d) should report the feed trimmed past %d retained ops", last-retain-1, retain)
	}
	ops, ok := l.Since(last-retain, 0)
	if !ok || len(ops) != retain || ops[0].Seq != last-retain+1 || ops[retain-1].Seq != last {
		t.Fatalf("Since(%d) = %d ops (ok=%v), want the %d retained ops ending at %d", last-retain, len(ops), ok, retain, last)
	}
}

func TestLogSubscribeWakes(t *testing.T) {
	l := NewLog(1, 0)
	ch := l.Subscribe()
	select {
	case <-ch:
		t.Fatal("wake before any append")
	default:
	}
	l.Append(Op{Kind: OpPut, ID: "c1"})
	l.Append(Op{Kind: OpPut, ID: "c2"}) // coalesces into the same pending wake
	select {
	case <-ch:
	default:
		t.Fatal("no wake after append")
	}
}

func TestTeePublishesCommittedMutations(t *testing.T) {
	log := NewLog(1, 0)
	tee := NewTee("acme", NewMem(), log)

	if err := tee.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := appendEvents(tee, "c1", [][]byte{[]byte(`"a"`), []byte(`"b"`)}); err != nil {
		t.Fatal(err)
	}
	if err := appendEvents(tee, "c1", [][]byte{[]byte(`"c"`)}); err != nil {
		t.Fatal(err)
	}
	if err := tee.Snapshot("c1", []byte(`{"s":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := appendEvents(tee, "c1", [][]byte{[]byte(`"d"`)}); err != nil {
		t.Fatal(err)
	}
	if err := tee.Remove("c1"); err != nil {
		t.Fatal(err)
	}

	ops, ok := log.Since(0, 0)
	if !ok || len(ops) != 6 {
		t.Fatalf("got %d ops, want 6", len(ops))
	}
	wantKinds := []OpKind{OpPut, OpAppend, OpAppend, OpSnapshot, OpAppend, OpRemove}
	wantPrev := []int{0, 0, 2, 0, 0, 0}
	for i, op := range ops {
		if op.Tenant != "acme" || op.ID != "c1" {
			t.Fatalf("op %d addressed %s/%s", i, op.Tenant, op.ID)
		}
		if op.Kind != wantKinds[i] {
			t.Fatalf("op %d kind = %s, want %s", i, op.Kind, wantKinds[i])
		}
		if op.Kind == OpAppend && op.PrevWAL != wantPrev[i] {
			t.Fatalf("op %d PrevWAL = %d, want %d", i, op.PrevWAL, wantPrev[i])
		}
	}
}

func TestTeeFailedInnerOpPublishesNothing(t *testing.T) {
	log := NewLog(1, 0)
	tee := NewTee("acme", NewMem(), log)
	if err := tee.Put("c1", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := tee.Put("c1", []byte(`{}`)); err == nil {
		t.Fatal("duplicate Put should fail")
	}
	if got := log.Seq(); got != 1 {
		t.Fatalf("failed Put published an op: seq = %d, want 1", got)
	}
}

func TestTeeRejectsUntrackedAppend(t *testing.T) {
	inner := NewMem()
	if err := inner.Put("c9", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	tee := NewTee("acme", inner, NewLog(1, 0))
	if err := appendEvents(tee, "c9", [][]byte{[]byte(`"x"`)}); err == nil {
		t.Fatal("append without a tracked anchor must be refused")
	}
}

func TestTeeLoadSeedsAnchors(t *testing.T) {
	inner := NewMem()
	if err := inner.Put("c3", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := appendEvents(inner, "c3", [][]byte{[]byte(`"a"`), []byte(`"b"`)}); err != nil {
		t.Fatal(err)
	}
	log := NewLog(1, 0)
	tee := NewTee("acme", inner, log)
	if _, err := tee.Load(); err != nil {
		t.Fatal(err)
	}
	if err := appendEvents(tee, "c3", [][]byte{[]byte(`"c"`)}); err != nil {
		t.Fatal(err)
	}
	ops, _ := log.Since(0, 0)
	if len(ops) != 1 || ops[0].PrevWAL != 2 {
		t.Fatalf("post-Load append anchored at %d, want 2", ops[0].PrevWAL)
	}
}

// TestTeePutDuringFlush: a Tee holds its lock across the inner Put while
// a flush's commit callback needs that lock to publish, so Dir.Put must
// never wait for the flusher. The linger holds a batch in flight while
// Put runs.
func TestTeePutDuringFlush(t *testing.T) {
	d, err := NewDirWith(t.TempDir(), DirOptions{MaxBatchDelay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tee := NewTee("default", d, NewLog(1, 0))
	if err := tee.Put("c1", []byte(`{"f":1}`)); err != nil {
		t.Fatal(err)
	}
	wait, err := tee.StageEvents("c1", [][]byte{rec("a")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- wait() }()
	time.Sleep(20 * time.Millisecond) // the leader is lingering
	go func() { done <- tee.Put("c2", []byte(`{"f":1}`)) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Put and an in-flight flush deadlocked") // no Close: it would block too
		}
	}
	d.Close()
}
