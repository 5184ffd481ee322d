package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/relation"
)

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Metric != distance.D2 {
		t.Errorf("default metric = %v", o.Metric)
	}
	if o.FrequencyFraction != 0.03 {
		t.Errorf("default frequency = %v", o.FrequencyFraction)
	}
	if err := o.validate(3); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	base := DefaultOptions()
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"negative diameter", func(o *Options) { o.DiameterThreshold = -1 }},
		{"wrong per-group count", func(o *Options) { o.DiameterThresholds = []float64{1} }},
		{"frequency > 1", func(o *Options) { o.FrequencyFraction = 1.5 }},
		{"negative frequency", func(o *Options) { o.FrequencyFraction = -0.1 }},
		{"negative min size", func(o *Options) { o.MinClusterSize = -1 }},
		{"zero degree factor", func(o *Options) { o.DegreeFactor = 0 }},
		{"zero graph factor", func(o *Options) { o.GraphFactor = 0 }},
		{"zero max antecedent", func(o *Options) { o.MaxAntecedent = 0 }},
		{"zero max consequent", func(o *Options) { o.MaxConsequent = 0 }},
		{"NaN diameter", func(o *Options) { o.DiameterThreshold = math.NaN() }},
		{"infinite diameter", func(o *Options) { o.DiameterThreshold = math.Inf(1) }},
		{"negative per-group diameter", func(o *Options) { o.DiameterThresholds = []float64{1, -1} }},
		{"negative memory", func(o *Options) { o.MemoryLimit = -1 }},
		{"negative branching", func(o *Options) { o.Branching = -1 }},
		{"NaN rule support", func(o *Options) { o.MinRuleSupport = math.NaN() }},
		{"rule support without post-scan", func(o *Options) { o.MinRuleSupport = 0.1; o.PostScan = false }},
	}
	for _, c := range cases {
		o := base
		c.mutate(&o)
		if err := o.validate(2); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestOptionsDiameterFor(t *testing.T) {
	o := DefaultOptions()
	o.DiameterThreshold = 5
	o.DiameterThresholds = []float64{0, 7}
	if got := o.diameterFor(0); got != 5 {
		t.Errorf("group 0 d0 = %v, want fallback 5", got)
	}
	if got := o.diameterFor(1); got != 7 {
		t.Errorf("group 1 d0 = %v, want override 7", got)
	}
}

func TestOptionsMinSize(t *testing.T) {
	o := QueryOptions{FrequencyFraction: 0.03}
	if got := o.minSize(1000); got != 30 {
		t.Errorf("minSize(1000) = %d, want 30", got)
	}
	if got := o.minSize(10); got != 1 {
		t.Errorf("minSize(10) = %d, want floor of 1", got)
	}
	o.MinClusterSize = 7
	if got := o.minSize(1000); got != 7 {
		t.Errorf("absolute MinClusterSize not honored: %d", got)
	}
}

// TestEntryPointsRejectBadQuery: every constructor that takes Options
// runs the one QueryOptions validator, so settings QuerySummary rejects
// fail loudly with ErrBadQuery before any scan — never as a silently
// empty rule set or a runaway Phase II.
func TestEntryPointsRejectBadQuery(t *testing.T) {
	rel := plantedXY(rand.New(rand.NewSource(1)), 20, 0)
	part := relation.SingletonPartitioning(rel.Schema())
	cases := []struct {
		name   string
		mutate func(*QueryOptions)
	}{
		{"DegreeFactor=NaN", func(q *QueryOptions) { q.DegreeFactor = math.NaN() }},
		{"GraphFactor=+Inf", func(q *QueryOptions) { q.GraphFactor = math.Inf(1) }},
		{"FrequencyFraction=NaN", func(q *QueryOptions) { q.FrequencyFraction = math.NaN() }},
		{"Metric=99", func(q *QueryOptions) { q.Metric = 99 }},
	}
	for _, c := range cases {
		opt := DefaultOptions()
		opt.PostScan = false
		c.mutate(&opt.QueryOptions)
		if _, err := NewMiner(rel, part, opt); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: NewMiner err = %v, want ErrBadQuery", c.name, err)
		}
		if _, err := Ingest(rel, part, opt); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: Ingest err = %v, want ErrBadQuery", c.name, err)
		}
		if _, err := NewIncrementalMiner(part, opt); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: NewIncrementalMiner err = %v, want ErrBadQuery", c.name, err)
		}
	}
}
