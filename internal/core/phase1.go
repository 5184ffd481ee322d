package core

import (
	"fmt"
	"time"

	"repro/internal/cf"
	"repro/internal/cftree"
	"repro/internal/relation"
)

// Miner mines distance-based association rules from a relation under a
// fixed attribute partitioning (Section 6). Internally it is a thin
// composition of the shared ingest layer (ingester — Phase I) and the
// rule engine (ruleEngine — Phase II), plus the relation-dependent
// post-scan passes neither layer needs.
type Miner struct {
	opt  Options
	rel  relation.Source
	part *relation.Partitioning

	shape cf.Shape
}

// NewMiner validates the options against the partitioning and returns a
// miner ready to Mine. The source may be an in-memory Relation or a
// disk-backed DiskRelation; mining only ever scans it sequentially.
func NewMiner(rel relation.Source, part *relation.Partitioning, opt Options) (*Miner, error) {
	if rel == nil || part == nil {
		return nil, fmt.Errorf("core: nil relation or partitioning")
	}
	if part.Schema() != rel.Schema() {
		return nil, fmt.Errorf("core: partitioning is over a different schema")
	}
	if err := opt.validate(part.NumGroups()); err != nil {
		return nil, err
	}
	shape := make(cf.Shape, part.NumGroups())
	for g := range shape {
		shape[g] = part.Group(g).Dims()
	}
	return &Miner{opt: opt, rel: rel, part: part, shape: shape}, nil
}

// PhaseIStats reports on the clustering phase.
type PhaseIStats struct {
	// Duration is the wall time of the single data scan (Figure 6 plots
	// this against relation size).
	Duration time.Duration
	// TuplesScanned is the relation size |r|.
	TuplesScanned int
	// ClustersFound is the total number of leaf ACFs across all trees
	// (the ≈1050 of Section 7.2), before frequency filtering.
	ClustersFound int
	// FrequentClusters survived the frequency threshold s0.
	FrequentClusters int
	// Rebuilds counts adaptive threshold raises across all trees.
	Rebuilds int
	// OutliersPaged counts summaries paged out across all trees.
	OutliersPaged int
	// Bytes is the final estimated memory footprint of all trees.
	Bytes int
	// PerTree exposes the per-group tree statistics. Empty for results
	// answered from a Summary, whose provenance is aggregated per group.
	PerTree []cftree.Stats
}

// phaseI performs the single scan of Section 6.1 through the shared
// ingest layer: every tuple is projected onto each attribute group and
// inserted into that group's ACF-tree. It returns the frequent
// clusters, sorted deterministically, plus stats. Nominal groups are
// clustered with threshold 0 so clusters coincide with exact values
// (Theorem 5.1).
func (m *Miner) phaseI() ([]*Cluster, PhaseIStats, error) {
	start := time.Now()
	n := m.rel.Len()

	// track=false: the batch pipeline gets nominal co-occurrence from
	// the post-scan, so histograms would be dead weight. (Tracking would
	// not change the clusters — tree memory accounting ignores it.)
	ing := newIngester(m.part, m.opt, false, n)
	if err := ing.addSource(m.rel); err != nil {
		return nil, PhaseIStats{}, err
	}
	leaves, treeStats := ing.collect(true)

	stats := PhaseIStats{TuplesScanned: n, PerTree: treeStats}
	thresholds := make([]float64, len(treeStats))
	for g, st := range treeStats {
		thresholds[g] = st.Threshold
		stats.Rebuilds += st.Rebuilds
		stats.OutliersPaged += st.OutliersPaged
		stats.Bytes += st.Bytes
	}
	clusters, found := selectClusters(leaves, thresholds, m.opt.GlobalRefine, m.opt.minSize(n))
	stats.ClustersFound = found
	stats.FrequentClusters = len(clusters)
	stats.Duration = time.Since(start)
	return clusters, stats, nil
}
