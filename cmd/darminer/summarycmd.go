// The ingest, query, merge and diff subcommands expose the Ingest →
// Summary → Query pipeline on the command line. `ingest` runs Phase I
// once and writes a .acfsum summary file; `query` answers rule queries
// from a summary without touching the data — with measure annotation
// (-measures), group filters (-ante, -into), degree sweeps (-sweep)
// and server-side top-k (-topk); `merge` combines summaries of
// disjoint shards; `diff` (diffcmd.go) reports rule drift between two
// summaries. Together they replace one monolithic `darminer data.csv`
// run with a persistable intermediate:
//
//	darminer ingest -d0 5 -o data.acfsum data.csv
//	darminer query -minsup 0.2 -measures -topk 10 data.acfsum
//	darminer merge -o all.acfsum shard1.acfsum shard2.acfsum
//	darminer diff -minsup 0.2 old.acfsum new.acfsum
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	dar "repro"
	"repro/internal/distance"
)

// ingestConfig carries the `ingest` flag values.
type ingestConfig struct {
	d0         float64
	memory     int
	workers    int
	groups     string
	out        string
	cpuprofile string
	memprofile string
	// cluster, when set, ships the CSV to a darc coordinator instead of
	// ingesting locally; name is then the catalog name to install under.
	cluster string
	name    string
}

// queryConfig carries the `query` (and `diff`) flag values.
type queryConfig struct {
	minsup  float64
	degree  float64
	metric  string
	top     int
	workers int
	asJSON  bool
	// Query modes: measure annotation, server-side top-k (distinct from
	// -top, which only limits printing), group filters and a
	// degree-factor sweep — all applied inside the engine, identically
	// on the local and remote paths.
	measures bool
	topk     int
	ante     string
	into     string
	sweep    string
	// addr, when set, queries a running dard server instead of a local
	// file; the positional argument is then a catalog summary name.
	addr string
}

// modeFlags registers the query-mode flags shared by `query` and `diff`.
func (cfg *queryConfig) modeFlags(fs *flag.FlagSet) {
	fs.Float64Var(&cfg.minsup, "minsup", 0.03, "frequency threshold s0 as a fraction of the ingested relation")
	fs.Float64Var(&cfg.degree, "degree", 1, "degree-of-association factor (rules must satisfy degree <= factor)")
	fs.StringVar(&cfg.metric, "metric", "D2", "cluster metric: D0, D1, D2, D3 or D4")
	fs.IntVar(&cfg.workers, "workers", 1, "worker goroutines (output is identical at any count)")
	fs.BoolVar(&cfg.measures, "measures", false, "annotate every rule with interestingness measures (support bound, confidence, lift, conviction)")
	fs.IntVar(&cfg.topk, "topk", 0, "keep only the K strongest rules, after filters (0 = all); ties cannot arise — the rule order is total")
	fs.StringVar(&cfg.ante, "ante", "", "comma-separated attribute groups the antecedent must cover, e.g. \"Age,Salary\"")
	fs.StringVar(&cfg.into, "into", "", "comma-separated attribute groups the consequent must lie on (target filter)")
	fs.StringVar(&cfg.sweep, "sweep", "", "comma-separated degree factors to sweep, each in (0, degree], e.g. \"0.25,0.5,1\"")
	fs.BoolVar(&cfg.asJSON, "json", false, "emit the full result as JSON")
}

// options resolves the flag values into validated query options —
// one builder for the local and remote paths of both subcommands.
func (cfg queryConfig) options() (dar.QueryOptions, error) {
	m, ok := distance.ParseClusterMetric(cfg.metric)
	if !ok {
		return dar.QueryOptions{}, fmt.Errorf("unknown metric %q", cfg.metric)
	}
	q := dar.DefaultQueryOptions()
	q.Metric = m
	q.FrequencyFraction = cfg.minsup
	q.DegreeFactor = cfg.degree
	q.Workers = cfg.workers
	q.Measures = cfg.measures
	q.TopK = cfg.topk
	q.AntecedentGroups = splitList(cfg.ante)
	q.ConsequentGroups = splitList(cfg.into)
	dar.NormalizeGroupFilters(&q)
	for _, tok := range splitList(cfg.sweep) {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return dar.QueryOptions{}, fmt.Errorf("bad -sweep entry %q: %v", tok, err)
		}
		q.SweepFactors = append(q.SweepFactors, f)
	}
	sort.Float64s(q.SweepFactors)
	if err := q.Validate(); err != nil {
		return dar.QueryOptions{}, err
	}
	return q, nil
}

// splitList splits a comma-separated flag value, trimming blanks away
// so "a, b," means two entries.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// ingestMain parses `darminer ingest` flags and runs the subcommand.
func ingestMain(args []string) int {
	fs := flag.NewFlagSet("darminer ingest", flag.ExitOnError)
	var cfg ingestConfig
	fs.Float64Var(&cfg.d0, "d0", 0, "diameter threshold d0 in data units (0 = derive per attribute from the data)")
	fs.IntVar(&cfg.memory, "memory", 0, "Phase I memory budget in bytes (0 = unlimited)")
	fs.IntVar(&cfg.workers, "workers", 1, "worker goroutines for the ingest scan (output is identical at any count)")
	fs.StringVar(&cfg.groups, "groups", "", "attribute grouping, e.g. \"lat+lon,price\" (default: one group per attribute)")
	fs.StringVar(&cfg.out, "o", "", "output summary path (default: input with .acfsum extension)")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the ingest to this file")
	fs.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile taken after the ingest to this file")
	fs.StringVar(&cfg.cluster, "cluster", "", "base URL of a darc coordinator (e.g. http://localhost:8345); the ingest is sharded across its workers and installed under -name")
	fs.StringVar(&cfg.name, "name", "", "catalog name to install under on the coordinator (required with -cluster)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: darminer ingest [flags] data.csv")
		fmt.Fprintln(os.Stderr, "       darminer ingest [flags] -cluster http://host:8345 -name summary-name data.csv")
		fs.PrintDefaults()
		return 2
	}
	if cfg.cluster != "" {
		if cfg.name == "" {
			fmt.Fprintln(os.Stderr, "darminer ingest: -cluster needs -name")
			return 2
		}
		if err := runClusterIngest(os.Stdout, cfg.cluster, cfg.name, fs.Arg(0), cfg); err != nil {
			fmt.Fprintln(os.Stderr, "darminer ingest:", err)
			return 1
		}
		return 0
	}
	stop, err := startProfiles(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darminer ingest:", err)
		return 1
	}
	err = runIngest(os.Stdout, fs.Arg(0), cfg)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "darminer ingest:", err)
		return 1
	}
	return 0
}

// queryMain parses `darminer query` flags and runs the subcommand.
func queryMain(args []string) int {
	fs := flag.NewFlagSet("darminer query", flag.ExitOnError)
	var cfg queryConfig
	cfg.modeFlags(fs)
	fs.IntVar(&cfg.top, "top", 50, "print at most this many rules (0 = all)")
	fs.StringVar(&cfg.addr, "addr", "", "base URL of a running dard server (e.g. http://localhost:8344); the argument is then a catalog summary name, not a file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: darminer query [flags] data.acfsum")
		fmt.Fprintln(os.Stderr, "       darminer query [flags] -addr http://host:8344 summary-name")
		fs.PrintDefaults()
		return 2
	}
	var err error
	if cfg.addr != "" {
		err = runRemoteQuery(os.Stdout, cfg.addr, fs.Arg(0), cfg)
	} else {
		err = runQuery(os.Stdout, fs.Arg(0), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "darminer query:", err)
		return 1
	}
	return 0
}

// mergeMain parses `darminer merge` flags and runs the subcommand.
func mergeMain(args []string) int {
	fs := flag.NewFlagSet("darminer merge", flag.ExitOnError)
	out := fs.String("o", "", "output summary path (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: darminer merge -o merged.acfsum shard1.acfsum shard2.acfsum ...")
		fs.PrintDefaults()
		return 2
	}
	if err := runMerge(os.Stdout, *out, fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "darminer merge:", err)
		return 1
	}
	return 0
}

// runIngest reads the CSV, runs the shared Phase I, and writes the
// encoded summary. Ingest-time parameters (thresholds, memory, grouping)
// are fixed here and recorded in the summary; query-time parameters
// (frequency, degree, metric) belong to `darminer query`.
func runIngest(w io.Writer, path string, cfg ingestConfig) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rel, err := dar.ReadCSV(f)
	if err != nil {
		return err
	}
	part, err := parseGroups(rel.Schema(), cfg.groups)
	if err != nil {
		return err
	}
	opt := dar.DefaultOptions()
	opt.DiameterThreshold = cfg.d0
	opt.MemoryLimit = cfg.memory
	opt.Workers = cfg.workers
	if cfg.d0 == 0 {
		suggested, err := dar.SuggestThresholds(rel, part, dar.AdvisorOptions{})
		if err != nil {
			return err
		}
		opt.DiameterThresholds = suggested
		fmt.Fprintf(w, "derived d0 per attribute: %v\n", suggested)
	}
	s, err := dar.Ingest(rel, part, opt)
	if err != nil {
		return err
	}
	data, err := dar.EncodeSummary(s)
	if err != nil {
		return err
	}
	out := cfg.out
	if out == "" {
		out = path + ".acfsum"
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	clusters := 0
	for _, g := range s.Groups {
		clusters += len(g.Clusters)
	}
	fmt.Fprintf(w, "ingested %d tuples into %d groups (%d clusters), wrote %d bytes to %s\n",
		s.Tuples, len(s.Groups), clusters, len(data), out)
	return nil
}

// runQuery decodes a summary and answers a rule query from it alone.
// Cluster descriptions come from the summary's recorded schema; with no
// relation available, bounding boxes are the centroid ± 2·radius
// estimate and rule supports are not counted — exactly the output of
// `darminer -nopostscan` over the original data.
func runQuery(w io.Writer, path string, cfg queryConfig) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := dar.DecodeSummary(data)
	if err != nil {
		return err
	}
	q, err := cfg.options()
	if err != nil {
		return err
	}
	res, err := dar.Query(s, q)
	if err != nil {
		return err
	}
	schema, err := s.Schema()
	if err != nil {
		return err
	}
	part, err := s.Partitioning(schema)
	if err != nil {
		return err
	}
	// Describe only reads the schema, so an empty relation over it serves
	// as the value formatter.
	rel := dar.NewRelation(schema)
	if cfg.asJSON {
		return dar.WriteJSON(w, res, rel, part)
	}
	fmt.Fprintf(w, "summary: %d tuples, %d groups, %d shard(s)\n", s.Tuples, len(s.Groups), s.Shards)
	fmt.Fprintf(w, "phase II: %v, %d cliques, %d rules\n", res.PhaseII.Duration, res.PhaseII.Cliques, len(res.Rules))
	for _, p := range res.Sweep {
		fmt.Fprintf(w, "sweep degree<=%g: %d rules\n", p.Factor, p.Rules)
	}
	for i, r := range res.Rules {
		if cfg.top > 0 && i == cfg.top {
			fmt.Fprintf(w, "... %d more rules\n", len(res.Rules)-cfg.top)
			break
		}
		fmt.Fprintln(w, res.DescribeRule(r, rel, part)+formatMeasures(r.Measures))
	}
	return nil
}

// formatMeasures renders the optional measure annotation of one rule
// for text output; the ∞ stands for the ConvictionInfinite sentinel.
func formatMeasures(m *dar.RuleMeasures) string {
	if m == nil {
		return ""
	}
	conv := fmt.Sprintf("%.2f", m.Conviction)
	if m.Conviction == dar.ConvictionInfinite {
		conv = "∞"
	}
	return fmt.Sprintf(" [sup %.2f conf %.2f lift %.2f conv %s]", m.Support, m.Confidence, m.Lift, conv)
}

// runMerge folds the shard summaries left to right and writes the
// combined summary.
func runMerge(w io.Writer, out string, inputs []string) error {
	var merged *dar.Summary
	for _, path := range inputs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		s, err := dar.DecodeSummary(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if merged == nil {
			merged = s
			continue
		}
		merged, err = dar.MergeSummaries(merged, s)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	data, err := dar.EncodeSummary(merged)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d summaries (%d tuples, %d shards), wrote %d bytes to %s\n",
		len(inputs), merged.Tuples, merged.Shards, len(data), out)
	return nil
}
