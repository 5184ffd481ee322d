package main

import "testing"

func TestSelfTimeNested(t *testing.T) {
	// op [0,100] ─┬─ a [10,40] ── a1 [20,30]
	//             └─ b [50,90]
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a1", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 90},
	}
	want := []float64{30, 20, 10, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	l := newLedger(spans)
	if c := l.coveredMS("op"); c != 70 {
		t.Errorf("covered = %v, want 70 (the sum of the layers' self times)", c)
	}
}

func TestSelfTimeConcurrentChildren(t *testing.T) {
	// A fan-out: two shard spans overlap inside dispatch and count once.
	spans := []span{
		{ID: 0, Parent: -1, Name: "dispatch", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "shard", Start: 5, End: 80},
		{ID: 2, Parent: 0, Name: "shard", Start: 10, End: 95},
	}
	if got := selfTimes(spans)[0]; got != 10 {
		t.Errorf("self(dispatch) = %v, want 10", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	if err := rec.run("op-1", "op", func(tr *tracer) error {
		return tr.step("outer", func() error {
			return tr.step("inner", func() error { return nil })
		})
	}); err != nil {
		t.Fatal(err)
	}
	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for i, wantParent := range []int{-1, 0, 1} {
		if spans[i].Parent != wantParent || spans[i].Op != "op-1" {
			t.Errorf("span %d (%s): parent %d op %q, want parent %d", i, spans[i].Name, spans[i].Parent, spans[i].Op, wantParent)
		}
		if spans[i].End < spans[i].Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
}
