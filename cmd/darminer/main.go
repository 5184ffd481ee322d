// Command darminer mines distance-based association rules from a CSV
// file whose header annotates attribute kinds ("name:interval",
// "name:nominal", plain names default to interval):
//
//	darminer -d0 2500 -minsup 0.03 data.csv
//
// Flags select the algorithm (-algo dar|qar|sa96), thresholds, the
// cluster metric, the Phase I memory budget, and the worker count
// (-workers N parallelizes both mining phases without changing the
// output). Rules print one per line, strongest first, with bounding-box
// cluster descriptions.
//
// The ingest/query/merge subcommands split the same pipeline around a
// persistable .acfsum summary file — see summarycmd.go:
//
//	darminer ingest -d0 5 -o data.acfsum data.csv
//	darminer query -minsup 0.2 data.acfsum
//	darminer merge -o all.acfsum shard1.acfsum shard2.acfsum
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	dar "repro"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/qar"
	"repro/internal/relation"
)

// runConfig carries the flag values into run; the zero value of a field
// means the matching flag's zero, not the flag default.
type runConfig struct {
	algo    string
	d0      float64
	minsup  float64
	degree  float64
	minconf float64
	metric  string
	memory  int
	nparts  int
	top     int
	workers int
	asJSON  bool
	groups  string
	// noPostScan disables the descriptive rescans of Section 6.2
	// (inverted so the zero value keeps the default behaviour).
	noPostScan bool
	cpuprofile string
	memprofile string
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "ingest":
			os.Exit(ingestMain(os.Args[2:]))
		case "query":
			os.Exit(queryMain(os.Args[2:]))
		case "merge":
			os.Exit(mergeMain(os.Args[2:]))
		case "diff":
			os.Exit(diffMain(os.Args[2:]))
		}
	}
	var cfg runConfig
	flag.StringVar(&cfg.algo, "algo", "dar", "mining algorithm: dar (distance-based), qar (generalized quantitative), sa96 (equi-depth baseline), classical (adaptive 1-itemset counting)")
	flag.Float64Var(&cfg.d0, "d0", 0, "diameter/density threshold d0 in data units (0 = derive per attribute from the data)")
	flag.Float64Var(&cfg.minsup, "minsup", 0.03, "frequency threshold s0 as a fraction of the relation")
	flag.Float64Var(&cfg.degree, "degree", 1, "degree-of-association factor (rules must satisfy degree <= factor; lower is stricter)")
	flag.Float64Var(&cfg.minconf, "minconf", 0.6, "minimum confidence (qar and sa96 modes)")
	flag.StringVar(&cfg.metric, "metric", "D2", "cluster metric: D0, D1, D2, D3 or D4")
	flag.IntVar(&cfg.memory, "memory", 0, "Phase I memory budget in bytes (0 = unlimited; the paper used 5MB)")
	flag.IntVar(&cfg.nparts, "partitions", 10, "equi-depth partitions per attribute (sa96 mode)")
	flag.IntVar(&cfg.top, "top", 50, "print at most this many rules (0 = all)")
	flag.IntVar(&cfg.workers, "workers", 1, "worker goroutines for both mining phases (dar and qar modes; output is identical at any count)")
	flag.BoolVar(&cfg.asJSON, "json", false, "emit the full result as JSON (dar mode only)")
	flag.StringVar(&cfg.groups, "groups", "", "attribute grouping, e.g. \"lat+lon,price\" (default: one group per attribute; dar and qar modes)")
	flag.BoolVar(&cfg.noPostScan, "nopostscan", false, "skip the descriptive rescans (dar mode): approximate bounding boxes, uncounted rule supports")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: darminer [flags] data.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}
	stop, err := startProfiles(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darminer:", err)
		os.Exit(1)
	}
	err = run(os.Stdout, flag.Arg(0), cfg)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "darminer:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, path string, cfg runConfig) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rel, err := dar.ReadCSV(f)
	if err != nil {
		return err
	}
	if !cfg.asJSON {
		fmt.Fprintf(w, "loaded %d tuples, %d attributes\n", rel.Len(), rel.Schema().Width())
	}
	part, err := parseGroups(rel.Schema(), cfg.groups)
	if err != nil {
		return err
	}

	switch cfg.algo {
	case "dar":
		m, ok := distance.ParseClusterMetric(cfg.metric)
		if !ok {
			return fmt.Errorf("unknown metric %q", cfg.metric)
		}
		opt := dar.DefaultOptions()
		opt.Metric = m
		opt.DiameterThreshold = cfg.d0
		opt.FrequencyFraction = cfg.minsup
		opt.DegreeFactor = cfg.degree
		opt.MemoryLimit = cfg.memory
		opt.Workers = cfg.workers
		opt.PostScan = !cfg.noPostScan
		if cfg.d0 == 0 {
			suggested, err := dar.SuggestThresholds(rel, part, dar.AdvisorOptions{})
			if err != nil {
				return err
			}
			opt.DiameterThresholds = suggested
			if !cfg.asJSON {
				fmt.Fprintf(w, "derived d0 per attribute: %v\n", suggested)
			}
		}
		res, err := dar.Mine(rel, part, opt)
		if err != nil {
			return err
		}
		if cfg.asJSON {
			return dar.WriteJSON(w, res, rel, part)
		}
		fmt.Fprintf(w, "phase I: %v, %d clusters (%d frequent, %d rebuilds)\n",
			res.PhaseI.Duration, res.PhaseI.ClustersFound, res.PhaseI.FrequentClusters, res.PhaseI.Rebuilds)
		fmt.Fprintf(w, "phase II: %v, %d cliques, %d rules\n",
			res.PhaseII.Duration, res.PhaseII.Cliques, len(res.Rules))
		for i, r := range res.Rules {
			if cfg.top > 0 && i == cfg.top {
				fmt.Fprintf(w, "... %d more rules\n", len(res.Rules)-cfg.top)
				break
			}
			fmt.Fprintln(w, res.DescribeRule(r, rel, part))
		}
		return nil

	case "qar":
		opt := dar.DefaultOptions()
		opt.DiameterThreshold = cfg.d0
		opt.FrequencyFraction = cfg.minsup
		opt.MemoryLimit = cfg.memory
		opt.Workers = cfg.workers
		res, err := dar.MineQAR(rel, part, opt, cfg.minconf)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "phase I: %v, %d clusters; phase II: %v, %d rules\n",
			res.PhaseI.Duration, len(res.Clusters), res.PhaseII, len(res.Rules))
		for i, r := range res.Rules {
			if cfg.top > 0 && i == cfg.top {
				fmt.Fprintf(w, "... %d more rules\n", len(res.Rules)-cfg.top)
				break
			}
			fmt.Fprintln(w, describeQAR(res, r, rel, part))
		}
		return nil

	case "classical":
		res, err := classical.Mine(rel, classical.Options{
			MaxEntriesPerAttr: maxEntriesFromBudget(cfg.memory, rel.Schema().Width()),
			MinSupport:        cfg.minsup,
			MinConfidence:     cfg.minconf,
			MaxLen:            5,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "mined %d rules from %d items in %v (exact: %v, collapses: %d)\n",
			len(res.Rules), len(res.Items), res.Duration, res.Exact, res.Collapses)
		for i, r := range res.Rules {
			if cfg.top > 0 && i == cfg.top {
				fmt.Fprintf(w, "... %d more rules\n", len(res.Rules)-cfg.top)
				break
			}
			fmt.Fprintln(w, r.Describe(rel))
		}
		return nil

	case "sa96":
		res, err := qar.Mine(rel, qar.Options{
			Partitions:    cfg.nparts,
			MinSupport:    cfg.minsup,
			MinConfidence: cfg.minconf,
			MaxLen:        5,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "mined %d rules in %v\n", len(res.Rules), res.Duration)
		for i, r := range res.Rules {
			if cfg.top > 0 && i == cfg.top {
				fmt.Fprintf(w, "... %d more rules\n", len(res.Rules)-cfg.top)
				break
			}
			fmt.Fprintln(w, r.Describe(rel))
		}
		return nil

	default:
		return fmt.Errorf("unknown algorithm %q (want dar, qar, sa96 or classical)", cfg.algo)
	}
}

// parseGroups builds a partitioning from a comma-separated spec of
// "+"-joined attribute names ("lat+lon,price"); attributes not mentioned
// get their own singleton group. An empty spec is all-singletons. The
// grammar lives in the library (ParseGroupsSpec) so the dard server
// speaks exactly the same syntax.
func parseGroups(schema *dar.Schema, spec string) (*dar.Partitioning, error) {
	return dar.ParseGroupsSpec(schema, spec)
}

// maxEntriesFromBudget converts a byte budget to a per-attribute entry
// cap for the classical mode (one Entry is ≈40 bytes); 0 stays unlimited.
func maxEntriesFromBudget(bytes, attrs int) int {
	if bytes <= 0 || attrs <= 0 {
		return 0
	}
	per := bytes / attrs / 40
	if per < 2 {
		per = 2
	}
	return per
}

func describeQAR(res *core.QARResult, r core.QARRule, rel *relation.Relation, part *relation.Partitioning) string {
	out := ""
	for i, id := range r.Antecedent {
		if i > 0 {
			out += " ∧ "
		}
		out += res.Clusters[id].Describe(rel, part)
	}
	out += " ⇒ "
	for i, id := range r.Consequent {
		if i > 0 {
			out += " ∧ "
		}
		out += res.Clusters[id].Describe(rel, part)
	}
	return fmt.Sprintf("%s (sup %.2f, conf %.2f)", out, r.Support, r.Confidence)
}
