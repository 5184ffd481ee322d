package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
)

// opKind is what one operation of a sequence sends.
type opKind int

const (
	// opWrite publishes a new version of the summary named sumName:
	// POST /v1/ingest, POST /v1/cluster/ingest or PUT /v1/summaries.
	opWrite opKind = iota
	// opQuery queries sumName; opScaled queries a scaled summary.
	opQuery
	opScaled
)

// sumName is the summary every write goes to, so catalog and storage
// state stay the same size however long a run is.
const sumName = "wbcd"

// scaledSummaries is how many scaled summaries the query workload
// serves, each from its own relation, so the median scaled query does
// not hang on one relation's cluster count.
const scaledSummaries = 4

// scaledName names scaled summary i.
func scaledName(i int) string { return fmt.Sprintf("wbcd_scaled%d", i) }

// op is one step of a fixed sequence. For a write, arg is the relation
// (ingest workloads) or artifact (query) it publishes; for a query it
// indexes the sequence's option table, and a scaled query goes to
// scaled summary sum.
type op struct {
	kind opKind
	arg  int
	sum  int
}

// queryOptions is one query's options in the JSON form dard accepts.
// Zero fields are omitted and take the server defaults. Workers stays
// unset, as dard's cache key ignores it.
type queryOptions struct {
	DegreeFactor     float64  `json:"degreeFactor,omitempty"`
	GraphFactor      float64  `json:"graphFactor,omitempty"`
	Measures         bool     `json:"measures,omitempty"`
	TopK             int      `json:"topK,omitempty"`
	AntecedentGroups []string `json:"antecedentGroups,omitempty"`
	ConsequentGroups []string `json:"consequentGroups,omitempty"`
}

// core resolves the options the way dard's query handler does.
func (o queryOptions) core() core.QueryOptions {
	q := core.DefaultQueryOptions()
	if o.DegreeFactor != 0 {
		q.DegreeFactor = o.DegreeFactor
	}
	if o.GraphFactor != 0 {
		q.GraphFactor = o.GraphFactor
	}
	q.Measures = o.Measures
	q.TopK = o.TopK
	q.AntecedentGroups = append([]string(nil), o.AntecedentGroups...)
	q.ConsequentGroups = append([]string(nil), o.ConsequentGroups...)
	q.Workers = 0
	core.NormalizeGroupFilters(&q)
	return q
}

// sequence is a workload's whole op list plus the option table its
// queries index. It is a pure function of the workload, the seed and
// the size, so every run with the same arguments does identical work.
type sequence struct {
	ops     []op
	options []queryOptions
	bodies  [][]byte // options as JSON request bodies
	// planned counts ops per intended class; the served classes (by
	// X-Dard-Cache) are counted separately while the run goes.
	planned map[string]int
	// cycle is the length of the sequence's repeating unit: every run
	// of cycle consecutive ops from the start holds the same mix of
	// op kinds, so their throughputs are comparable samples.
	cycle int
}

// readbackHits is how many times each write's read-back query is
// repeated after the miss that caches it.
const readbackHits = 3

// readbackOptions is the read-back query: Phase II in full, but only
// the 25 strongest rules rendered, so hits time the cache path rather
// than a bulk transfer of the whole rule set.
var readbackOptions = queryOptions{TopK: 25}

// writeSequence is the op list of the ingest workloads: writes of the
// relations in turn, each followed by a read-back of the fresh version
// (a cache miss) and readbackHits repeats of it (cache hits).
func writeSequence(writes, relations int) sequence {
	s := sequence{options: []queryOptions{readbackOptions}, planned: map[string]int{}}
	for i := 0; i < writes; i++ {
		s.ops = append(s.ops, op{kind: opWrite, arg: i % relations})
		for j := 0; j <= readbackHits; j++ {
			s.ops = append(s.ops, op{kind: opQuery})
		}
	}
	s.planned["write"] = writes
	s.planned["readback"] = (1 + readbackHits) * writes
	s.cycle = 2 + readbackHits
	return s.withBodies()
}

// withBodies renders every option as the JSON body dard receives.
func (s sequence) withBodies() sequence {
	for _, o := range s.options {
		body, err := json.Marshal(o)
		if err != nil {
			panic(fmt.Sprintf("marshalling query options %+v: %v", o, err)) // plain struct: cannot happen
		}
		s.bodies = append(s.bodies, body)
	}
	return s
}

// Shape of the query workload: epochs end with an install, so each
// epoch's reads see one summary version. A cycle of two epochs holds
// 40 pool repeats, 7 fresh options on sumName, 1 fresh option on a
// scaled summary and 2 installs (80/14/2/4% of its 50 ops), so the
// class counts are exact for any seed.
const (
	poolSize       = 3
	poolPerEpoch   = 20
	epochsPerCycle = 2
)

// querySequence is the query workload's op list. The option table
// holds the warm pool first, then every fresh option; epochs draw pool
// entries at random and shuffle their reads, so the seed changes the
// order but never the counts. Pool entries render the 25 strongest
// rules, like the read-back, so hits time the cache path.
func querySequence(seed int64, epochs int, groups []string) sequence {
	rng := rand.New(rand.NewSource(seed))
	s := sequence{planned: map[string]int{}}
	seen := map[string]bool{}
	for i := 0; i < poolSize; i++ {
		o := freshOptions(rng, seen, groups)
		o.TopK = readbackOptions.TopK
		s.options = append(s.options, o)
	}
	for e := 0; e < epochs; e++ {
		var reads []op
		for i := 0; i < poolPerEpoch; i++ {
			reads = append(reads, op{kind: opQuery, arg: rng.Intn(poolSize)})
		}
		fresh := 3
		if e%epochsPerCycle == 0 {
			fresh = 4
			reads = append(reads, op{opScaled, len(s.options), s.planned["scaled"] % scaledSummaries})
			s.options = append(s.options, scaledOptions(rng, seen))
			s.planned["scaled"]++
		}
		for i := 0; i < fresh; i++ {
			reads = append(reads, op{kind: opQuery, arg: len(s.options)})
			s.options = append(s.options, freshOptions(rng, seen, groups))
		}
		rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		s.ops = append(s.ops, reads...)
		// Installs alternate artifacts 1, 0, 1, …: artifact 0 is the
		// one the data dir starts with.
		s.ops = append(s.ops, op{kind: opWrite, arg: (e + 1) % 2})
		s.planned["pool"] += poolPerEpoch
		s.planned["fresh"] += fresh
		s.planned["write"]++
		if e == epochsPerCycle-1 {
			s.cycle = len(s.ops)
		}
	}
	if s.cycle == 0 {
		s.cycle = len(s.ops)
	}
	return s.withBodies()
}

// freshOptions draws query options on sumName whose canonical key is
// new. Only the default metric D2 is used: D0 and D1 enumerate far more
// cliques and would turn one query into a multi-second outlier. The
// ranges keep every query's cost within a few ms of the default's.
func freshOptions(rng *rand.Rand, seen map[string]bool, groups []string) queryOptions {
	for {
		o := queryOptions{
			DegreeFactor: 0.8 + float64(rng.Intn(401))/1000,
			GraphFactor:  0.8 + float64(rng.Intn(401))/1000,
			Measures:     rng.Intn(2) == 0,
			TopK:         []int{0, 25, 100, 400}[rng.Intn(4)],
		}
		switch rng.Intn(4) {
		case 0:
			o.AntecedentGroups = []string{groups[rng.Intn(len(groups))]}
		case 1:
			o.ConsequentGroups = []string{groups[rng.Intn(len(groups))]}
		}
		if key := o.core().CanonicalKey(); !seen[key] {
			seen[key] = true
			return o
		}
	}
}

// scaledOptions draws options for the scaled summaries. The graph factor stays
// at its default and every rule is rendered, so every scaled query
// builds the same graph, costs about the same and caches a body of
// about the same size; only rule formation varies.
func scaledOptions(rng *rand.Rand, seen map[string]bool) queryOptions {
	for {
		o := queryOptions{
			DegreeFactor: 0.9 + float64(rng.Intn(201))/1000,
			Measures:     rng.Intn(2) == 0,
		}
		if key := "scaled|" + o.core().CanonicalKey(); !seen[key] {
			seen[key] = true
			return o
		}
	}
}

// classify maps a query reply's X-Dard-Cache header onto its served
// class, prefixed "scaled_" for queries of a scaled summary. Any other header
// value means the server broke its contract, and the op fails.
func classify(kind opKind, header string) (string, error) {
	switch header {
	case "hit", "miss", "shared":
	default:
		return "", fmt.Errorf("X-Dard-Cache %q is not hit, miss or shared", header)
	}
	if kind == opScaled {
		return "scaled_" + header, nil
	}
	return header, nil
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
