package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
)

// diffSummary ingests a relation and queries it, returning everything
// DiffRules needs for one side.
func diffSummary(t *testing.T, rel *relation.Relation, q QueryOptions) (*Result, *relation.Relation, *relation.Partitioning) {
	t.Helper()
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()
	opt.PostScan = false
	s, err := Ingest(rel, part, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	res, err := QuerySummary(s, q)
	if err != nil {
		t.Fatalf("QuerySummary: %v", err)
	}
	return res, rel, part
}

// TestDiffRulesIdentical: diffing a result against itself yields no
// drift — everything unchanged, nothing added, removed or changed.
func TestDiffRulesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := kitchenRelation(rng, 300)
	q := kitchenQuery()
	res, r, p := diffSummary(t, rel, q)
	if len(res.Rules) == 0 {
		t.Fatal("test degenerated: no rules")
	}

	d := DiffRules(res, res, r, r, p, p)
	if len(d.Added) != 0 || len(d.Removed) != 0 || len(d.Changed) != 0 {
		t.Errorf("self-diff not empty: %+v", d)
	}
	sigs := make(map[string]bool)
	for _, rule := range res.Rules {
		sigs[RuleSignature(res, rule, r, p)] = true
	}
	if d.Unchanged != len(sigs) {
		t.Errorf("Unchanged = %d, want %d distinct signatures", d.Unchanged, len(sigs))
	}
	if d.OldTuples != rel.Len() || d.NewTuples != rel.Len() {
		t.Errorf("tuple counts %d/%d, want %d", d.OldTuples, d.NewTuples, rel.Len())
	}
}

// TestDiffRulesDrift: shifting one job's salary band between the two
// sides must surface as added + removed signatures mentioning the new
// and old bands, while rules not involving that band stay unchanged.
func TestDiffRulesDrift(t *testing.T) {
	oldRel := jobSalaryRelation()
	newRel := relation.NewRelation(oldRel.Schema())
	if err := oldRel.Scan(func(_ int, tuple []float64) error {
		out := append([]float64(nil), tuple...)
		if out[1] == 90000 { // every manager got a raise
			out[1] = 95000
		}
		return newRel.Append(out)
	}); err != nil {
		t.Fatalf("copy: %v", err)
	}

	q := plantedOptions().QueryOptions
	oldRes, or, op := diffSummary(t, oldRel, q)
	newRes, nr, np := diffSummary(t, newRel, q)
	d := DiffRules(oldRes, newRes, or, nr, op, np)

	if len(d.Added) == 0 || len(d.Removed) == 0 {
		t.Fatalf("drift not detected: %+v", d)
	}
	for _, e := range d.Added {
		if !strings.Contains(e.Signature, "95000") {
			t.Errorf("added rule does not mention the new band: %q", e.Signature)
		}
	}
	for _, e := range d.Removed {
		if !strings.Contains(e.Signature, "90000") {
			t.Errorf("removed rule does not mention the old band: %q", e.Signature)
		}
	}
	if d.Unchanged == 0 {
		t.Error("DBA rules should survive the manager raise unchanged")
	}

	// The entry slices come out sorted by signature.
	for _, entries := range [][]DiffEntry{d.Added, d.Removed} {
		if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Signature < entries[j].Signature }) {
			t.Errorf("diff entries not sorted: %+v", entries)
		}
	}
}

// TestDiffRulesDegreeChange: same rule shape at a different degree lands
// in Changed with both degrees, not in Added/Removed.
func TestDiffRulesDegreeChange(t *testing.T) {
	// Reuse one result and perturb a copy's degree directly — DiffRules
	// only reads (signature, degree), so this pins the classification
	// without having to engineer a dataset whose degree shifts while
	// every cluster box stays put.
	rng := rand.New(rand.NewSource(11))
	rel := kitchenRelation(rng, 300)
	q := kitchenQuery()
	res, r, p := diffSummary(t, rel, q)
	if len(res.Rules) == 0 {
		t.Fatal("test degenerated: no rules")
	}

	bumped := *res
	bumped.Rules = append([]Rule(nil), res.Rules...)
	sig := RuleSignature(res, bumped.Rules[0], r, p)
	oldDeg := bumped.Rules[0].Degree
	bumped.Rules[0].Degree = oldDeg + 0.125

	d := DiffRules(res, &bumped, r, r, p, p)
	found := false
	for _, c := range d.Changed {
		if c.Signature == sig {
			found = true
			if c.OldDegree != oldDeg || c.NewDegree != oldDeg+0.125 {
				t.Errorf("Changed degrees %v → %v, want %v → %v", c.OldDegree, c.NewDegree, oldDeg, oldDeg+0.125)
			}
		}
	}
	if !found {
		t.Fatalf("degree change not in Changed: %+v", d.Changed)
	}
	for _, e := range append(d.Added, d.Removed...) {
		if e.Signature == sig {
			t.Errorf("degree-changed rule misfiled as added/removed: %q", sig)
		}
	}
}

// TestDiffRulesDictionaryOrderIndependence: the same data ingested with
// nominal codes assigned in opposite first-seen orders diffs empty —
// signatures render by value, so cross-summary code disagreement is
// invisible.
func TestDiffRulesDictionaryOrderIndependence(t *testing.T) {
	tuples := []struct {
		job    string
		salary float64
	}{}
	for i := 0; i < 40; i++ {
		tuples = append(tuples, struct {
			job    string
			salary float64
		}{"DBA", 40000})
	}
	for i := 0; i < 15; i++ {
		tuples = append(tuples, struct {
			job    string
			salary float64
		}{"Mgr", 90000})
	}

	build := func(reversed bool) *relation.Relation {
		r := relation.NewRelation(shardSchema())
		dict := r.Schema().Attr(0).Dict
		if reversed {
			dict.Code("Mgr") // Mgr gets code 0 here, code 1 on the other side
			dict.Code("DBA")
		}
		for _, tp := range tuples {
			r.MustAppend([]float64{dict.Code(tp.job), tp.salary})
		}
		return r
	}

	q := plantedOptions().QueryOptions
	aRes, ar, ap := diffSummary(t, build(false), q)
	bRes, br, bp := diffSummary(t, build(true), q)
	if len(aRes.Rules) == 0 {
		t.Fatal("test degenerated: no rules")
	}

	d := DiffRules(aRes, bRes, ar, br, ap, bp)
	if len(d.Added) != 0 || len(d.Removed) != 0 || len(d.Changed) != 0 {
		t.Errorf("dictionary order leaked into the diff: %+v", d)
	}
	if d.Unchanged == 0 {
		t.Error("no unchanged rules matched across dictionary orders")
	}
}

// TestDiffRulesDeterministic: two invocations render byte-identical
// JSON (map iteration inside DiffRules must not leak).
func TestDiffRulesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	oldRel := kitchenRelation(rng, 200)
	newRel := kitchenRelation(rng, 200)
	q := kitchenQuery()
	oldRes, or, op := diffSummary(t, oldRel, q)
	newRes, nr, np := diffSummary(t, newRel, q)

	first := DiffRules(oldRes, newRes, or, nr, op, np)
	var a, b bytes.Buffer
	if err := WriteDiffJSON(&a, first); err != nil {
		t.Fatalf("WriteDiffJSON: %v", err)
	}
	for i := 0; i < 20; i++ {
		again := DiffRules(oldRes, newRes, or, nr, op, np)
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d: diff differs:\n%+v\n%+v", i, again, first)
		}
		b.Reset()
		if err := WriteDiffJSON(&b, again); err != nil {
			t.Fatalf("WriteDiffJSON: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("run %d: JSON differs:\n%s\n%s", i, a.Bytes(), b.Bytes())
		}
	}
}
