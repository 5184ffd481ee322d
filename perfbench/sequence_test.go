package main

import (
	"fmt"
	"reflect"
	"testing"
)

func testGroups() []string {
	var g []string
	for i := 0; i < 30; i++ {
		g = append(g, fmt.Sprintf("a%02d", i))
	}
	return g
}

func TestQuerySequenceSameSeedSameWork(t *testing.T) {
	a := querySequence(7, 40, testGroups())
	b := querySequence(7, 40, testGroups())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sequences from seed 7 differ")
	}
	want := map[string]int{"pool": 800, "fresh": 140, "scaled": 20, "write": 40}
	if !reflect.DeepEqual(a.planned, want) {
		t.Fatalf("planned counts %v, want %v", a.planned, want)
	}
	if len(a.ops) != 1000 {
		t.Fatalf("%d ops, want 1000", len(a.ops))
	}

	// Another seed reorders and redraws, but the counts are exact.
	c := querySequence(8, 40, testGroups())
	if reflect.DeepEqual(a.ops, c.ops) {
		t.Fatal("seeds 7 and 8 gave the same op order")
	}
	if !reflect.DeepEqual(c.planned, want) || len(c.ops) != len(a.ops) {
		t.Fatalf("seed 8: planned %v over %d ops, want %v over %d", c.planned, len(c.ops), want, len(a.ops))
	}
}

func TestQuerySequenceShape(t *testing.T) {
	s := querySequence(3, 10, testGroups())
	counted := map[opKind]int{}
	keys := map[string]bool{}
	for i, o := range s.options {
		key := o.core().CanonicalKey()
		if keys[key] {
			t.Fatalf("option %d repeats the canonical key %q", i, key)
		}
		keys[key] = true
	}
	fresh := map[int]bool{}
	scaled := 0
	for i, o := range s.ops {
		counted[o.kind]++
		if o.kind == opScaled {
			if o.sum != scaled%scaledSummaries {
				t.Fatalf("scaled query %d goes to summary %d, want the rotation's %d", scaled, o.sum, scaled%scaledSummaries)
			}
			scaled++
		}
		switch o.kind {
		case opWrite:
			if o.arg != 0 && o.arg != 1 {
				t.Fatalf("op %d installs artifact %d", i, o.arg)
			}
		default:
			// Pool entries repeat; every other option is asked once.
			if o.arg >= poolSize {
				if fresh[o.arg] {
					t.Fatalf("op %d repeats fresh option %d", i, o.arg)
				}
				fresh[o.arg] = true
			}
		}
	}
	if counted[opWrite] != 10 || counted[opScaled] != 5 || counted[opQuery] != 200+35 {
		t.Fatalf("op kinds %v", counted)
	}
	if last := s.ops[len(s.ops)-1]; last.kind != opWrite {
		t.Fatalf("the sequence ends with %v, want the epoch's install", last)
	}
}

func TestWriteSequence(t *testing.T) {
	s := writeSequence(6, 4)
	per := 2 + readbackHits
	if len(s.ops) != 6*per || s.planned["write"] != 6 || s.planned["readback"] != 6*(per-1) {
		t.Fatalf("%d ops, planned %v", len(s.ops), s.planned)
	}
	if s.cycle != per {
		t.Fatalf("cycle %d, want one write with its read-backs (%d)", s.cycle, per)
	}
	for i := 0; i < 6; i++ {
		if w := s.ops[per*i]; w != (op{kind: opWrite, arg: i % 4}) {
			t.Fatalf("write %d is %v", i, w)
		}
		for j := 1; j < per; j++ {
			if r := s.ops[per*i+j]; r != (op{kind: opQuery}) {
				t.Fatalf("write %d, read-back %d is %v", i, j, r)
			}
		}
	}
}

// Every whole cycle of a sequence holds the same mix of op kinds, so
// per-cycle throughputs are comparable samples.
func TestCyclesHoldTheSameMix(t *testing.T) {
	for name, s := range map[string]sequence{
		"query": querySequence(5, 40, testGroups()),
		"write": writeSequence(20, 10),
	} {
		if s.cycle < 1 || len(s.ops)%s.cycle != 0 {
			t.Fatalf("%s: cycle %d does not divide %d ops", name, s.cycle, len(s.ops))
		}
		var first map[opKind]int
		for c := 0; c < len(s.ops)/s.cycle; c++ {
			mix := map[opKind]int{}
			for _, o := range s.ops[c*s.cycle : (c+1)*s.cycle] {
				mix[o.kind]++
			}
			if first == nil {
				first = mix
			} else if !reflect.DeepEqual(mix, first) {
				t.Fatalf("%s: cycle %d holds %v, cycle 0 %v", name, c, mix, first)
			}
		}
	}
	if s := querySequence(5, 40, testGroups()); s.cycle != 50 {
		t.Fatalf("query cycle %d ops, want two epochs (50)", s.cycle)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		kind   opKind
		header string
		want   string
	}{
		{opQuery, "hit", "hit"},
		{opQuery, "miss", "miss"},
		{opQuery, "shared", "shared"},
		{opScaled, "hit", "scaled_hit"},
		{opScaled, "miss", "scaled_miss"},
	} {
		got, err := classify(c.kind, c.header)
		if err != nil || got != c.want {
			t.Errorf("classify(%v, %q) = %q, %v; want %q", c.kind, c.header, got, err, c.want)
		}
	}
	for _, header := range []string{"", "HIT", "stale"} {
		if got, err := classify(opQuery, header); err == nil {
			t.Errorf("classify(%q) = %q, want an error", header, got)
		}
	}
}
