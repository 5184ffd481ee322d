// Package core implements the paper's primary contribution: mining
// distance-based association rules (DARs) over interval data. The Miner
// runs the two-phase algorithm of Section 6 — Phase I builds one adaptive
// ACF-tree per attribute group in a single data scan; Phase II filters
// frequent clusters, builds the clustering graph of Dfn 6.1, enumerates
// maximal cliques, computes assoc() sets and emits N:M rules (Dfn 5.3)
// ranked by degree of association. The package also provides the
// generalized quantitative association rule miner of Section 4.3
// (QARMiner) and exact small-data evaluators used to verify Theorems 5.1
// and 5.2 and to reproduce the worked examples of Figures 1, 2 and 4.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/distance"
)

// ErrBadQuery marks query options (or option/summary combinations, like
// a filter naming a group the summary does not have) that can never
// produce a result. Every validation failure wraps it, so serving
// layers can map the whole class onto one client-error status.
var ErrBadQuery = errors.New("invalid query")

// QueryOptions are the Phase II settings: everything that can change
// between two queries over the same Summary without rescanning the
// relation. It is the one definition of a query. Options embeds it, so a
// batch Mine applies exactly the settings a QuerySummary would, and its
// JSON form is the request body dard's query and diff endpoints accept:
// absent fields keep their DefaultQueryOptions values. Ingest-time
// parameters (diameter thresholds, memory budget, tree geometry) live in
// Options and are recorded in the Summary's provenance. The zero value
// is not valid; start from DefaultQueryOptions.
type QueryOptions struct {
	// Metric is the cluster distance D used for the clustering graph and
	// rule degrees. The default is D2, the average inter-cluster distance
	// of Eq. 6, which Theorem 5.2 relates to classical confidence.
	Metric distance.ClusterMetric `json:"metric"`

	// FrequencyFraction is the frequency threshold s0 expressed as a
	// fraction of the relation size (the paper's Section 7.2 uses 3%).
	// Clusters supported by fewer tuples are not used in Phase II.
	FrequencyFraction float64 `json:"frequencyFraction"`
	// MinClusterSize is the absolute frequency threshold; when > 0 it
	// takes precedence over FrequencyFraction.
	MinClusterSize int `json:"minClusterSize,omitempty"`

	// DegreeFactor scales the degree-of-association threshold: a rule
	// constraint D(C_Y[Y], C_X[Y]) must be at most DegreeFactor·d0^Y.
	// Degrees are reported normalized by d0^Y, so a rule "holds with
	// degree" <= DegreeFactor. Defaults to 1.
	DegreeFactor float64 `json:"degreeFactor"`
	// GraphFactor scales the clustering-graph edge thresholds of Dfn 6.1.
	// The paper found "using a more lenient (higher) threshold in Phase
	// II produces a better set of rules"; the default is 2.
	GraphFactor float64 `json:"graphFactor"`

	// MaxAntecedent and MaxConsequent bound the number of clusters on
	// each side of an emitted rule (subset enumeration over assoc() sets
	// is exponential otherwise). Defaults: 3 and 2.
	MaxAntecedent int `json:"maxAntecedent"`
	MaxConsequent int `json:"maxConsequent"`

	// GlobalRefine enables BIRCH's global clustering pass over each
	// group's leaf clusters before frequency filtering: they are
	// agglomeratively merged while the union satisfies the group's
	// recorded threshold. The local, insertion-order-sensitive tree
	// construction leaves boundary fragments (duplicate leaf entries for
	// one natural cluster); refinement repairs them without touching the
	// data. Defaults to true.
	GlobalRefine bool `json:"globalRefine"`

	// PruneImages enables the Phase II reduction of Section 6.2: cluster
	// images with poor density (image radius beyond the group's edge
	// threshold) are skipped when computing graph edges. For the D2
	// metric the bound is exact (D2² = R1² + R2² + D0² ≥ R1²), so the
	// rule set is unchanged; for D0/D1 it is the paper's heuristic.
	// Defaults to true.
	PruneImages bool `json:"pruneImages"`

	// Measures annotates every emitted rule with the summary-derived
	// interestingness measures of RuleMeasures (support estimate,
	// confidence analogue, lift, conviction). Pure post-processing over
	// the base rule set: the annotated rules are otherwise identical.
	Measures bool `json:"measures,omitempty"`
	// AntecedentGroups, when non-empty, keeps only rules whose
	// antecedents cover every named attribute group (possibly among
	// others). Names must be sorted ascending without duplicates
	// (NormalizeGroupFilters arranges that) and are resolved against the
	// partitioning at query time.
	AntecedentGroups []string `json:"antecedentGroups,omitempty"`
	// ConsequentGroups, when non-empty, keeps only rules whose
	// consequents all lie on the named groups — the paper's
	// target-attribute use case ("rules predicting salary only").
	// Same ordering contract as AntecedentGroups.
	ConsequentGroups []string `json:"consequentGroups,omitempty"`
	// SweepFactors asks for a degree-factor sweep: for each factor f —
	// strictly ascending, each within (0, DegreeFactor] so the counts
	// are exact — Result.Sweep reports how many of the (filtered) rules
	// hold at degree factor f. One mining pass serves the whole sweep:
	// a rule of degree d holds for every factor >= d.
	SweepFactors []float64 `json:"sweepFactors,omitempty"`
	// TopK, when > 0, keeps only the K strongest rules under the total
	// order (Degree asc, then Antecedent, then Consequent lexicographic
	// — unique because (antecedent, consequent) pairs are deduplicated).
	// Applied after filters; Sweep counts are taken before truncation.
	TopK int `json:"topK,omitempty"`

	// Workers sets mining parallelism. 0 or 1 keeps the paper's fully
	// serial execution. In Phase I, Workers is the number of worker
	// goroutines applying trees — min(Workers, groups) lanes, each owning
	// the fixed stripe of attribute-group trees g ≡ lane (mod lanes) —
	// while the caller is the reader on top of them: it scans the
	// relation ONCE, projects every tuple into a flat row and hands
	// batches of rows to every lane. Phase II fans clustering-graph rows
	// and per-clique assoc()/rule formation out over the sanctioned pool,
	// merging results in task order. The mined output — clusters, rules,
	// degrees, supports, ordering — is bit-identical to the serial path
	// at every worker count, which is why Workers is excluded from the
	// canonical key: two queries differing only in Workers share a cache
	// entry.
	Workers int `json:"workers,omitempty"` //lint:allow keycoverage execution-only knob; results are bit-identical at any worker count
}

// DefaultQueryOptions returns the Phase II settings of the paper's
// evaluation: D2 degrees, lenient graph thresholds, refinement and
// pruning on, and a 3% frequency threshold.
func DefaultQueryOptions() QueryOptions {
	return QueryOptions{
		Metric:            distance.D2,
		FrequencyFraction: 0.03,
		DegreeFactor:      1,
		GraphFactor:       2,
		MaxAntecedent:     3,
		MaxConsequent:     2,
		GlobalRefine:      true,
		PruneImages:       true,
	}
}

// Validate checks the per-query invariants without running a query —
// the serving layer rejects bad options at the HTTP boundary before
// touching a summary.
func (q QueryOptions) Validate() error { return q.validate() }

func (q QueryOptions) validate() error {
	if q.Metric < distance.D0 || q.Metric > distance.D4 {
		return fmt.Errorf("core: unknown cluster metric %d: %w", int(q.Metric), ErrBadQuery)
	}
	if math.IsNaN(q.FrequencyFraction) || q.FrequencyFraction < 0 || q.FrequencyFraction > 1 {
		return fmt.Errorf("core: FrequencyFraction must be in [0,1], got %v: %w", q.FrequencyFraction, ErrBadQuery)
	}
	if q.MinClusterSize < 0 {
		return fmt.Errorf("core: MinClusterSize must be >= 0, got %d: %w", q.MinClusterSize, ErrBadQuery)
	}
	if math.IsNaN(q.DegreeFactor) || math.IsInf(q.DegreeFactor, 0) || q.DegreeFactor <= 0 {
		return fmt.Errorf("core: DegreeFactor must be a finite value > 0, got %v: %w", q.DegreeFactor, ErrBadQuery)
	}
	if math.IsNaN(q.GraphFactor) || math.IsInf(q.GraphFactor, 0) || q.GraphFactor <= 0 {
		return fmt.Errorf("core: GraphFactor must be a finite value > 0, got %v: %w", q.GraphFactor, ErrBadQuery)
	}
	if q.MaxAntecedent < 1 || q.MaxConsequent < 1 {
		return fmt.Errorf("core: MaxAntecedent and MaxConsequent must be >= 1, got %d and %d: %w", q.MaxAntecedent, q.MaxConsequent, ErrBadQuery)
	}
	if q.TopK < 0 {
		return fmt.Errorf("core: TopK must be >= 0, got %d: %w", q.TopK, ErrBadQuery)
	}
	if err := validateGroupFilter("AntecedentGroups", q.AntecedentGroups); err != nil {
		return err
	}
	if err := validateGroupFilter("ConsequentGroups", q.ConsequentGroups); err != nil {
		return err
	}
	for i, f := range q.SweepFactors {
		if math.IsNaN(f) || f <= 0 {
			return fmt.Errorf("core: SweepFactors[%d] must be a finite value > 0, got %v: %w", i, f, ErrBadQuery)
		}
		if f > q.DegreeFactor {
			return fmt.Errorf("core: SweepFactors[%d] = %v exceeds DegreeFactor %v; rules above it are never formed, so the sweep count would be wrong: %w", i, f, q.DegreeFactor, ErrBadQuery)
		}
		if i > 0 && f <= q.SweepFactors[i-1] {
			return fmt.Errorf("core: SweepFactors must be strictly ascending, got %v then %v: %w", q.SweepFactors[i-1], f, ErrBadQuery)
		}
	}
	if q.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0 (0 or 1 = serial), got %d: %w", q.Workers, ErrBadQuery)
	}
	return nil
}

// validateGroupFilter checks the ordering contract of a group-name
// filter: names are non-empty, sorted ascending, duplicate-free — the
// canonical form NormalizeGroupFilters produces, and the only form the
// canonical cache key admits (two spellings of one filter must not
// occupy two cache entries).
func validateGroupFilter(field string, names []string) error {
	for i, n := range names {
		if n == "" {
			return fmt.Errorf("core: %s[%d] is empty: %w", field, i, ErrBadQuery)
		}
		if i > 0 && names[i-1] >= n {
			return fmt.Errorf("core: %s must be sorted ascending without duplicates (got %q before %q); use NormalizeGroupFilters: %w", field, names[i-1], n, ErrBadQuery)
		}
	}
	return nil
}

// minSize returns the absolute frequency threshold s0 for a relation of n
// tuples. It is at least 1: empty clusters are never frequent.
func (q QueryOptions) minSize(n int) int {
	s := q.MinClusterSize
	if s == 0 {
		s = int(q.FrequencyFraction * float64(n))
	}
	if s < 1 {
		s = 1
	}
	return s
}

func (q QueryOptions) effectiveWorkers(tasks int) int {
	return clampWorkers(q.Workers, tasks)
}

// Options configures a Miner or an Ingest: the Phase II settings of the
// embedded QueryOptions plus the ingest-time parameters below. The
// promoted Validate and CanonicalKey cover only the embedded query;
// NewMiner, Ingest and NewIncrementalMiner check the whole of Options
// against the partitioning. The zero value is not valid; use
// DefaultOptions as a starting point.
type Options struct {
	QueryOptions

	// DiameterThreshold is the default density threshold d0 applied to
	// every attribute group. A cluster's diameter on its own group must
	// stay within the threshold.
	DiameterThreshold float64
	// DiameterThresholds optionally overrides the threshold per attribute
	// group (d0^X in the paper). Missing or zero entries fall back to
	// DiameterThreshold.
	DiameterThresholds []float64

	// MemoryLimit is the Phase I budget in bytes across all ACF-trees
	// (the paper's experiment used 5MB). Zero means unlimited.
	MemoryLimit int
	// Branching and LeafCapacity configure the ACF-trees (zero picks the
	// tree defaults).
	Branching    int
	LeafCapacity int
	// PageOutliers enables paging low-support clusters out of the trees
	// during rebuilds (to an in-memory side list) and re-absorbing them
	// at the end of the scan, as in Section 4.3.1.
	PageOutliers bool

	// PostScan enables the optional post-processing pass of Section 6.2:
	// one extra scan that assigns every tuple to its nearest frequent
	// cluster per group, computes exact cluster bounding boxes (the rule
	// description of Section 7.2), counts the joint support of every
	// candidate rule, and tallies cluster co-occurrence so rules over
	// nominal groups get exact discrete distances.
	PostScan bool

	// MinRuleSupport applies Section 6.2's "additional frequency
	// requirement": rules whose counted joint support falls below this
	// fraction of the relation are discarded after the candidate-support
	// rescan ("these rules are only candidate rules"). Requires PostScan.
	// Zero keeps every candidate.
	MinRuleSupport float64
}

// DefaultOptions returns the options used throughout the paper's
// evaluation: DefaultQueryOptions for Phase II, d0 = 1 and the
// descriptive post-scan on.
func DefaultOptions() Options {
	return Options{
		QueryOptions:      DefaultQueryOptions(),
		DiameterThreshold: 1,
		PostScan:          true,
	}
}

// validate checks the embedded query options, then the ingest-time
// fields.
func (o Options) validate(numGroups int) error {
	if err := o.QueryOptions.validate(); err != nil {
		return err
	}
	if !finiteNonNegative(o.DiameterThreshold) {
		return fmt.Errorf("core: DiameterThreshold must be a finite value >= 0, got %v", o.DiameterThreshold)
	}
	if o.DiameterThresholds != nil && len(o.DiameterThresholds) != numGroups {
		return fmt.Errorf("core: %d per-group diameter thresholds for %d groups", len(o.DiameterThresholds), numGroups)
	}
	for g, d := range o.DiameterThresholds {
		if !finiteNonNegative(d) {
			return fmt.Errorf("core: DiameterThresholds[%d] must be a finite value >= 0, got %v", g, d)
		}
	}
	if o.MemoryLimit < 0 || o.Branching < 0 || o.LeafCapacity < 0 {
		return fmt.Errorf("core: MemoryLimit, Branching and LeafCapacity must be >= 0, got %d, %d and %d", o.MemoryLimit, o.Branching, o.LeafCapacity)
	}
	if math.IsNaN(o.MinRuleSupport) || o.MinRuleSupport < 0 || o.MinRuleSupport > 1 {
		return fmt.Errorf("core: MinRuleSupport must be in [0,1], got %v", o.MinRuleSupport)
	}
	if o.MinRuleSupport > 0 && !o.PostScan {
		return fmt.Errorf("core: MinRuleSupport needs PostScan (support comes from the candidate rescan)")
	}
	return nil
}

func finiteNonNegative(f float64) bool { return f >= 0 && !math.IsInf(f, 1) }

// diameterFor returns d0 for a group.
func (o Options) diameterFor(group int) float64 {
	if o.DiameterThresholds != nil && o.DiameterThresholds[group] > 0 {
		return o.DiameterThresholds[group]
	}
	return o.DiameterThreshold
}
