package core

import (
	"fmt"

	"repro/internal/cf"
	"repro/internal/summary"
)

// ruleEngine is Phase II as a pure function of (clusters, options,
// per-group d0): the clustering graph of Dfn 6.1, maximal cliques,
// assoc() sets and rule formation. It never touches a relation — only
// cluster summaries — which is the paper's Section 6 architecture made
// explicit. Both Miner.phase2 and QuerySummary construct one.
type ruleEngine struct {
	opt       QueryOptions
	numGroups int
	// d0[g] is the ingest-time diameter threshold of group g: the unit
	// degrees are normalized by (Dfn 5.3) and the basis of the graph
	// edge thresholds.
	d0 []float64
}

// QuerySummary answers a rule query from a Summary alone: refinement,
// frequency filtering, clustering graph, cliques, and rule formation,
// with co-occurrence degrees for nominal groups taken from the
// Summary's exact-value histograms (Theorem 5.2) — no rescan, no
// relation. The same summary can serve any number of queries with
// different options.
//
// Over the same relation, options and worker count, the result is
// bit-identical to Mine with PostScan disabled (the differential tests
// pin this); PostScan extras — exact boxes, rule supports, the
// MinRuleSupport filter — need the relation and are out of scope here.
func QuerySummary(s *summary.Summary, q QueryOptions) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil summary")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}

	groups := len(s.Groups)
	nominal := make([]bool, groups)
	thresholds := make([]float64, groups)
	d0 := make([]float64, groups)
	leaves := make([][]*cf.ACF, groups)
	stats := PhaseIStats{TuplesScanned: int(s.Tuples)}
	for g := range s.Groups {
		sg := &s.Groups[g]
		nominal[g] = sg.Nominal
		thresholds[g] = sg.Threshold
		d0[g] = sg.D0
		stats.Rebuilds += sg.Rebuilds
		stats.OutliersPaged += sg.OutliersPaged
		stats.Bytes += sg.Bytes
		ls := make([]*cf.ACF, len(sg.Clusters))
		for i, a := range sg.Clusters {
			ls[i] = a.Clone()
		}
		leaves[g] = ls
	}

	clusters, found := selectClusters(leaves, thresholds, q.GlobalRefine, q.minSize(int(s.Tuples)))
	stats.ClustersFound = found
	stats.FrequentClusters = len(clusters)

	e := &ruleEngine{opt: q, numGroups: groups, d0: d0}
	rules, p2 := e.run(clusters, nominal, summaryCooccurrence(clusters, nominal))
	res := &Result{Clusters: clusters, Rules: rules, PhaseI: stats, PhaseII: p2}
	if err := res.applyQueryModes(q, s.GroupIndex); err != nil {
		return nil, err
	}
	return res, nil
}

// applyQueryModes runs the deterministic post-processing pipeline over
// the base rule set, in this fixed order:
//
//  1. measure annotation (QueryOptions.Measures),
//  2. antecedent/consequent group filters,
//  3. the degree-factor sweep (counted over the filtered rules),
//  4. top-k truncation.
//
// Each stage is exactly the exported helper of the same name
// (AnnotateMeasures, FilterRules, SweepRules, Result.TopRules), so a
// fused engine answer equals the helpers applied to the unfiltered
// answer bit for bit — the differential suite pins this composition.
func (res *Result) applyQueryModes(q QueryOptions, groupIndex func(string) (int, bool)) error {
	if q.Measures {
		AnnotateMeasures(res)
	}
	if len(q.AntecedentGroups) > 0 || len(q.ConsequentGroups) > 0 {
		ante, err := resolveGroupFilter("AntecedentGroups", q.AntecedentGroups, groupIndex)
		if err != nil {
			return err
		}
		cons, err := resolveGroupFilter("ConsequentGroups", q.ConsequentGroups, groupIndex)
		if err != nil {
			return err
		}
		res.Rules = FilterRules(res.Rules, res.Clusters, ante, cons)
	}
	if len(q.SweepFactors) > 0 {
		res.Sweep = SweepRules(res.Rules, q.SweepFactors)
	}
	if q.TopK > 0 {
		res.Rules = res.TopRules(q.TopK)
	}
	return nil
}

// resolveGroupFilter maps filter names onto group indices, rejecting
// names the summary's partitioning does not have.
func resolveGroupFilter(field string, names []string, groupIndex func(string) (int, bool)) ([]int, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]int, len(names))
	for i, n := range names {
		g, ok := groupIndex(n)
		if !ok {
			return nil, fmt.Errorf("core: %s names unknown attribute group %q: %w", field, n, ErrBadQuery)
		}
		out[i] = g
	}
	return out, nil
}

// summaryCooccurrence derives the nominal co-occurrence counts Phase II
// needs (Theorem 5.2: D2 = 1 − |cx ∩ cy| / |cx|) from the exact-value
// histograms carried by the clusters, instead of the batch pipeline's
// post-scan. A nominal cluster cy is, by Theorem 5.1, exactly the set
// of tuples carrying its value, so |cx ∩ cy| is cx's histogram count
// for that value on cy's group.
func summaryCooccurrence(clusters []*Cluster, nominal []bool) cooccurrence {
	co := make(cooccurrence)
	for _, cy := range clusters {
		if !nominal[cy.Group] {
			continue
		}
		key := cy.ACF.OwnNomKey()
		for _, cx := range clusters {
			if cx.Group == cy.Group {
				continue
			}
			if n := cx.ACF.NomCount(cy.Group, key); n > 0 {
				co.set(cx.ID, cy.ID, n)
			}
		}
	}
	return co
}
