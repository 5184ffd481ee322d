package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/summary"
)

// The correctness oracle: every reply is checked against what the
// in-process CLI pipeline (core.Ingest → summary.Encode for writes,
// core.QuerySummary → core.WriteJSON for queries) produces from the
// same bytes.

// genRelations renders n wbcd-like relations as CSV. The SUT only ever
// sees these bytes; their seeds come from the benchmark's seed.
func genRelations(seed int64, n, tuples int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		cfg := datagen.DefaultWBCDConfig()
		cfg.Tuples = tuples
		cfg.Seed = seed*int64(n+1) + int64(i) + 1
		var err error
		if out[i], err = relationCSV(cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func relationCSV(cfg datagen.WBCDConfig) ([]byte, error) {
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, rel); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceD0s are the thresholds the advisor derives for the
// generator's reference relation (its default seed) of the given size.
// The query workload builds every summary under them, scaled, rather
// than under each relation's own: on some relations the advisor takes
// the spacing between an attribute's centres for its threshold (about
// 22.6 instead of 4.2), which leaves that summary with a fraction of
// the clusters and Phase II on it with a fraction of the work, so the
// seed, not the program, would decide how heavy a query is.
func referenceD0s(tuples int) ([]float64, error) {
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = tuples
	csv, err := relationCSV(cfg)
	if err != nil {
		return nil, err
	}
	rel, part, err := parse(direct, csv)
	if err != nil {
		return nil, err
	}
	return suggest(direct, rel, part)
}

// writeRef is the expected reply to one write plus the expected body
// of the read-back query on the version it publishes.
type writeRef struct {
	tuples   int64
	clusters int
	bytes    int
	answer   []byte
}

func newWriteRef(sum *summary.Summary, encoded []byte) (writeRef, error) {
	answer, err := render(direct, sum, readbackOptions.core())
	return writeRef{tuples: sum.Tuples, clusters: clusterCount(sum), bytes: len(encoded), answer: answer}, err
}

func (r writeRef) check(tuples int64, clusters, n int) error {
	if tuples != r.tuples || clusters != r.clusters || n != r.bytes {
		return fmt.Errorf("reply tuples/clusters/bytes %d/%d/%d, reference %d/%d/%d",
			tuples, clusters, n, r.tuples, r.clusters, r.bytes)
	}
	return nil
}

func clusterCount(s *summary.Summary) int {
	n := 0
	for _, g := range s.Groups {
		n += len(g.Clusters)
	}
	return n
}

// ingestRef is the reference for POST /v1/ingest of csv.
func ingestRef(csv []byte) (writeRef, error) {
	sum, encoded, err := ingestPipeline(direct, csv, nil)
	if err != nil {
		return writeRef{}, err
	}
	return newWriteRef(sum, encoded)
}

// clusterRef is the reference for POST /v1/cluster/ingest of csv.
func clusterRef(csv []byte) (writeRef, error) {
	sum, encoded, err := clusterPipeline(direct, csv, clusterShards, localShards, nil)
	if err != nil {
		return writeRef{}, err
	}
	return newWriteRef(sum, encoded)
}

// parallel runs fn(i) for i in [0, n) on up to GOMAXPROCS goroutines
// and returns the first error. Reference computation is untimed prep;
// spreading it over the cores only shortens the run.
func parallel(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	next := make(chan int, n) // holds every index, so filling it never blocks
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
