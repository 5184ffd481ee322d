package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/summary"
)

// Parallel Phase I must be bit-identical to the serial single scan:
// trees are independent and each sees tuples in storage order either way.
// Mined clusters and rules must match at every worker count — fewer lanes
// than trees, one lane per tree, and far more workers than trees.
func TestParallelPhaseIMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	schema := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.Interval},
		relation.Attribute{Name: "b", Kind: relation.Interval},
		relation.Attribute{Name: "c", Kind: relation.Interval},
		relation.Attribute{Name: "d", Kind: relation.Interval},
	)
	rel := relation.NewRelation(schema)
	for i := 0; i < 3000; i++ {
		base := float64(rng.Intn(10)) * 50
		rel.MustAppend([]float64{
			base + rng.NormFloat64(),
			base*2 + rng.NormFloat64(),
			float64(rng.Intn(5))*100 + rng.NormFloat64(),
			rng.Float64() * 1000,
		})
	}
	part := relation.SingletonPartitioning(schema)

	run := func(workers int) *Result {
		o := DefaultOptions()
		o.DiameterThreshold = 5
		o.FrequencyFraction = 0.02
		o.Workers = workers
		m, err := NewMiner(rel, part, o)
		if err != nil {
			t.Fatalf("NewMiner: %v", err)
		}
		res, err := m.Mine()
		if err != nil {
			t.Fatalf("Mine(workers=%d): %v", workers, err)
		}
		return res
	}
	serial := run(1)
	if len(serial.Rules) == 0 {
		t.Fatal("workload produced no rules; the comparison is vacuous")
	}
	for _, workers := range []int{2, 3, 8, 33} {
		par := run(workers)
		if !reflect.DeepEqual(serial.Clusters, par.Clusters) {
			t.Fatalf("workers=%d: clusters diverged from serial", workers)
		}
		if !reflect.DeepEqual(serial.Rules, par.Rules) {
			t.Fatalf("workers=%d: rules diverged from serial\nserial: %+v\nparallel: %+v",
				workers, serial.Rules, par.Rules)
		}
	}
}

// TestBalancedLanesMatchStripe pins that the lane layout never changes
// the summary: lanes always own the fixed stripe g ≡ l (mod lanes) (no
// cost-balanced packing), and Ingest at every stripe width — fewer lanes
// than trees, one lane per tree, far more workers than trees — must
// encode to the serial summary bytes.
func TestBalancedLanesMatchStripe(t *testing.T) {
	for _, seed := range []int64{5, 23, 61} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := relation.MustSchema(
				relation.Attribute{Name: "Job", Kind: relation.Nominal},
				relation.Attribute{Name: "a", Kind: relation.Interval},
				relation.Attribute{Name: "b", Kind: relation.Interval},
				relation.Attribute{Name: "c", Kind: relation.Interval},
				relation.Attribute{Name: "d", Kind: relation.Interval},
			)
			rel := relation.NewRelation(schema)
			dict := schema.Attr(0).Dict
			jobs := []string{"DBA", "Mgr", "Dev", "Ops"}
			for i := 0; i < 4000; i++ {
				band := float64(rng.Intn(7))
				rel.MustAppend([]float64{
					dict.Code(jobs[rng.Intn(len(jobs))]),
					band*40 + rng.NormFloat64(),
					band*80 + 7 + rng.NormFloat64(),
					float64(rng.Intn(4))*50 + rng.NormFloat64(),
					rng.Float64() * 1000,
				})
			}
			part := relation.SingletonPartitioning(schema)

			encode := func(workers int) []byte {
				o := DefaultOptions()
				o.DiameterThreshold = 5
				o.FrequencyFraction = 0.02
				o.Workers = workers
				s, err := Ingest(rel, part, o)
				if err != nil {
					t.Fatalf("Ingest(workers=%d): %v", workers, err)
				}
				data, err := summary.Encode(s)
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				return data
			}

			want := encode(1)
			for _, workers := range []int{2, 3, 4, 8, 33} {
				if got := encode(workers); !bytes.Equal(want, got) {
					t.Fatalf("workers=%d: summary bytes diverged from serial", workers)
				}
			}
		})
	}
}

// scanProbe wraps a Source and calls at() once, on the first tuple of
// every scan — by then the pipeline's lane goroutines are running.
type scanProbe struct {
	relation.Source
	at func()
}

func (p scanProbe) Scan(fn func(i int, tuple []float64) error) error {
	first := true
	return p.Source.Scan(func(i int, tuple []float64) error {
		if first {
			first = false
			p.at()
		}
		return fn(i, tuple)
	})
}

// TestPhaseILaneCount pins the lane rule: min(Workers, trees) lane
// goroutines, the caller being the reader, and none when serial. It
// counts the goroutines alive during the scan. A goroutine of an earlier
// ingest that has not quite exited, or one the runtime starts meanwhile,
// can skew a single count, so any of a few attempts may match.
func TestPhaseILaneCount(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.Interval},
		relation.Attribute{Name: "b", Kind: relation.Interval},
		relation.Attribute{Name: "c", Kind: relation.Interval},
		relation.Attribute{Name: "d", Kind: relation.Interval},
	)
	rel := relation.NewRelation(schema)
	for i := 0; i < 600; i++ {
		v := float64(i % 13)
		rel.MustAppend([]float64{v, v * 2, v * 3, v * 4})
	}
	part := relation.SingletonPartitioning(schema)
	for _, tc := range []struct{ workers, lanes int }{
		{0, 0}, {1, 0}, {2, 2}, {3, 3}, {4, 4}, {8, 4},
	} {
		var seen []int
		for attempt := 0; attempt < 5 && (len(seen) == 0 || seen[len(seen)-1] != tc.lanes); attempt++ {
			runtime.GC()
			before := runtime.NumGoroutine()
			during := 0
			src := scanProbe{Source: rel, at: func() { during = runtime.NumGoroutine() }}
			o := DefaultOptions()
			o.Workers = tc.workers
			if _, err := Ingest(src, part, o); err != nil {
				t.Fatalf("Ingest(workers=%d): %v", tc.workers, err)
			}
			seen = append(seen, during-before)
		}
		if seen[len(seen)-1] != tc.lanes {
			t.Errorf("workers=%d over 4 trees ran %v lanes, want %d", tc.workers, seen, tc.lanes)
		}
	}
}

// TestParallelPhaseIIMatchesSerial is the differential determinism test
// for the parallel rule-formation phase: identical relations mined at
// Workers ∈ {1, 2, 4, 8} across several seeds must produce bit-identical
// DAR output — every rule's cluster sets, degree, support and position,
// plus the Phase II counters the parallel merge reassembles.
func TestParallelPhaseIIMatchesSerial(t *testing.T) {
	for _, seed := range []int64{7, 19, 83} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := relation.MustSchema(
				relation.Attribute{Name: "Job", Kind: relation.Nominal},
				relation.Attribute{Name: "a", Kind: relation.Interval},
				relation.Attribute{Name: "b", Kind: relation.Interval},
				relation.Attribute{Name: "c", Kind: relation.Interval},
				relation.Attribute{Name: "noise", Kind: relation.Interval},
			)
			rel := relation.NewRelation(schema)
			dict := schema.Attr(0).Dict
			jobs := []string{"DBA", "Mgr", "Dev"}
			for i := 0; i < 2500; i++ {
				job := rng.Intn(len(jobs))
				band := float64(rng.Intn(6))
				rel.MustAppend([]float64{
					dict.Code(jobs[job]),
					band*40 + rng.NormFloat64(),
					band*80 + 7 + rng.NormFloat64(),
					float64(job)*50 + rng.NormFloat64(),
					rng.Float64() * 1000,
				})
			}
			part := relation.SingletonPartitioning(schema)

			run := func(workers int) *Result {
				o := DefaultOptions()
				o.DiameterThreshold = 5
				o.FrequencyFraction = 0.02
				o.DegreeFactor = 2.5
				o.Workers = workers
				m, err := NewMiner(rel, part, o)
				if err != nil {
					t.Fatalf("NewMiner: %v", err)
				}
				res, err := m.Mine()
				if err != nil {
					t.Fatalf("Mine(workers=%d): %v", workers, err)
				}
				return res
			}

			serial := run(1)
			if serial.PhaseII.Workers != 1 {
				t.Errorf("serial PhaseII.Workers = %d, want 1", serial.PhaseII.Workers)
			}
			if len(serial.Rules) == 0 {
				t.Fatal("workload produced no rules; the comparison is vacuous")
			}
			for _, workers := range []int{2, 4, 8} {
				par := run(workers)
				if !reflect.DeepEqual(serial.Rules, par.Rules) {
					t.Fatalf("workers=%d: rule output diverged from serial\nserial: %+v\nparallel: %+v",
						workers, serial.Rules, par.Rules)
				}
				if !reflect.DeepEqual(serial.Clusters, par.Clusters) {
					t.Fatalf("workers=%d: clusters diverged from serial", workers)
				}
				s, p := serial.PhaseII, par.PhaseII
				if s.GraphNodes != p.GraphNodes || s.GraphEdges != p.GraphEdges ||
					s.Cliques != p.Cliques || s.NonTrivialCliques != p.NonTrivialCliques ||
					s.Comparisons != p.Comparisons || s.Pruned != p.Pruned {
					t.Fatalf("workers=%d: Phase II stats diverged: serial %+v, parallel %+v", workers, s, p)
				}
			}
		})
	}
}

func TestWorkersValidation(t *testing.T) {
	rel := relation.NewRelation(relation.MustSchema(relation.Attribute{Name: "x"}))
	o := DefaultOptions()
	o.Workers = -1
	if _, err := NewMiner(rel, relation.SingletonPartitioning(rel.Schema()), o); err == nil {
		t.Error("negative Workers accepted")
	}
}

func TestStripeAssignment(t *testing.T) {
	got := stripeAssignment(5, 2)
	want := [][]int{{0, 2, 4}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stripeAssignment(5, 2) = %v, want %v", got, want)
	}
}

// TestPipelineSteadyStateAllocs pins the recycled-batch design: once the
// pool and lane goroutines exist, flushing more batches through the
// pipeline allocates nothing. Each addSource call pays a fixed setup
// cost (goroutines, channels, the batch pool), so the test measures the
// MARGINAL allocations between a 16-batch and a 64-batch ingest of the
// same repeated tuples — 48 extra batches must cost 0 allocations.
func TestPipelineSteadyStateAllocs(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "a", Kind: relation.Interval},
		relation.Attribute{Name: "b", Kind: relation.Interval},
		relation.Attribute{Name: "c", Kind: relation.Interval},
		relation.Attribute{Name: "d", Kind: relation.Interval},
		relation.Attribute{Name: "e", Kind: relation.Interval},
		relation.Attribute{Name: "f", Kind: relation.Interval},
	)
	mkRel := func(batches int) *relation.Relation {
		rel := relation.NewRelation(schema)
		for i := 0; i < batches*batchTuples; i++ {
			v := float64(i%8) * 100
			rel.MustAppend([]float64{v, v + 1, v + 2, v + 3, v + 4, v + 5})
		}
		return rel
	}
	rel16, rel64 := mkRel(16), mkRel(64)
	part := relation.SingletonPartitioning(schema)
	for _, workers := range []int{1, 4} {
		o := DefaultOptions()
		o.DiameterThreshold = 5
		o.Workers = workers

		ing := newIngester(part, o, true, rel64.Len())
		// Warm-up creates every cluster entry the repeated tuples ever need.
		if err := ing.addSource(rel16); err != nil {
			t.Fatal(err)
		}
		measure := func(rel *relation.Relation) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := ing.addSource(rel); err != nil {
					t.Fatal(err)
				}
			})
		}
		a16 := measure(rel16)
		a64 := measure(rel64)
		if delta := a64 - a16; delta > 0 {
			t.Errorf("workers=%d: 48 extra batches cost %.1f allocations (16-batch ingest: %.1f, 64-batch: %.1f); steady state must be 0-alloc",
				workers, delta, a16, a64)
		}
	}
}
