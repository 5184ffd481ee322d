package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/summary"
)

// The request pipelines of dard and darc, step by step, as calls into
// each module's public functions in the order and with the inputs the
// daemons' handlers use. The oracle runs them directly to get the
// expected replies; the traced run wraps every step in a span.

// stepFunc runs one named step of a pipeline.
type stepFunc func(name string, fn func() error) error

// direct runs a step with no instrumentation.
func direct(_ string, fn func() error) error { return fn() }

// readBody is a handler's first step: reading the whole request body
// into memory (the socket transfer itself stays outside the ledger).
func readBody(step stepFunc, body []byte) ([]byte, error) {
	var out []byte
	err := step("server.read_body", func() (err error) {
		out, err = io.ReadAll(bytes.NewReader(body))
		return err
	})
	return out, err
}

// parse decodes a CSV relation with the singleton partitioning, as
// dard and darc do for an ingest without ?groups=.
func parse(step stepFunc, csv []byte) (*relation.Relation, *relation.Partitioning, error) {
	var rel *relation.Relation
	var part *relation.Partitioning
	err := step("relation.read_csv", func() (err error) {
		rel, err = relation.ReadCSV(bytes.NewReader(csv))
		return err
	})
	if err == nil {
		err = step("relation.parse_groups", func() (err error) {
			part, err = relation.ParseGroupsSpec(rel.Schema(), "")
			return err
		})
	}
	return rel, part, err
}

func suggest(step stepFunc, rel *relation.Relation, part *relation.Partitioning) ([]float64, error) {
	var d0s []float64
	err := step("core.suggest_thresholds", func() (err error) {
		d0s, err = core.SuggestThresholds(rel, part, core.AdvisorOptions{})
		return err
	})
	return d0s, err
}

// phaseOne runs Phase I under pinned thresholds on all cores, as the
// ingest handlers do when ?workers= is absent, and encodes the result.
func phaseOne(step stepFunc, rel *relation.Relation, part *relation.Partitioning, d0s []float64) (*summary.Summary, []byte, error) {
	opt := ingestOptions(d0s)
	var sum *summary.Summary
	var encoded []byte
	err := step("core.ingest", func() (err error) {
		sum, err = core.Ingest(rel, part, opt)
		return err
	})
	if err == nil {
		err = step("summary.encode", func() (err error) {
			encoded, err = summary.Encode(sum)
			return err
		})
	}
	return sum, encoded, err
}

// ingestOptions are an ingest handler's Phase I options when the
// request pins thresholds and leaves ?workers= unset: all cores.
func ingestOptions(d0s []float64) core.Options {
	opt := core.DefaultOptions()
	opt.Workers = runtime.GOMAXPROCS(0)
	opt.DiameterThresholds = d0s
	return opt
}

// store publishes an encoded artifact the way the catalog does: a
// strict header check, then a durable Put. A nil backend skips it.
func store(step stepFunc, backend storage.Backend, encoded []byte) error {
	if backend == nil {
		return nil
	}
	if err := step("summary.stat", func() error {
		_, err := summary.Stat(encoded)
		return err
	}); err != nil {
		return err
	}
	return step("storage.flat.put", func() error {
		_, err := backend.Put(sumName, encoded)
		return err
	})
}

// ingestPipeline is POST /v1/ingest of body with derived thresholds,
// stored on backend when it is not nil.
func ingestPipeline(step stepFunc, body []byte, backend storage.Backend) (*summary.Summary, []byte, error) {
	csv, err := readBody(step, body)
	if err != nil {
		return nil, nil, err
	}
	rel, part, err := parse(step, csv)
	if err != nil {
		return nil, nil, err
	}
	d0s, err := suggest(step, rel, part)
	if err != nil {
		return nil, nil, err
	}
	sum, encoded, err := phaseOne(step, rel, part, d0s)
	if err != nil {
		return nil, nil, err
	}
	return sum, encoded, store(step, backend, encoded)
}

// dispatchFunc turns shard CSVs into encoded shard summaries, all
// under the pinned thresholds d0s.
type dispatchFunc func(shards [][]byte, d0s []float64) ([][]byte, error)

// localShards is the dispatch the oracle uses: each shard through the
// worker's shard-ingest pipeline, in process.
func localShards(shards [][]byte, d0s []float64) ([][]byte, error) {
	out := make([][]byte, len(shards))
	for i, csv := range shards {
		rel, part, err := parse(direct, csv)
		if err != nil {
			return nil, err
		}
		if _, out[i], err = phaseOne(direct, rel, part, d0s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// clusterPipeline is POST /v1/cluster/ingest on a coordinator pinned
// to the given shard count: thresholds derived once over the whole
// relation, contiguous row-range shards re-serialized to CSV and
// dispatched, the encoded shards decoded and folded in shard order,
// and the merged artifact decoded again and stored on install.
func clusterPipeline(step stepFunc, body []byte, shards int, dispatch dispatchFunc, backend storage.Backend) (*summary.Summary, []byte, error) {
	csv, err := readBody(step, body)
	if err != nil {
		return nil, nil, err
	}
	rel, part, err := parse(step, csv)
	if err != nil {
		return nil, nil, err
	}
	d0s, err := suggest(step, rel, part)
	if err != nil {
		return nil, nil, err
	}
	var shardCSVs [][]byte
	if err := step("cluster.plan", func() (err error) {
		shardCSVs, err = planShards(step, rel, shards)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var artifacts [][]byte
	if err := step("cluster.dispatch", func() (err error) {
		artifacts, err = dispatch(shardCSVs, d0s)
		return err
	}); err != nil {
		return nil, nil, err
	}
	sums := make([]*summary.Summary, len(artifacts))
	ids := make([]string, len(artifacts))
	if err := step("summary.decode", func() error {
		for i, a := range artifacts {
			var err error
			if sums[i], err = summary.Decode(a); err != nil {
				return err
			}
			ids[i] = fmt.Sprintf("%s/shard-%04d", sumName, i)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var merged *summary.Summary
	if err := step("summary.merge_all", func() (err error) {
		merged, err = summary.MergeAll(sums, ids)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var encoded []byte
	if err := step("summary.encode", func() (err error) {
		encoded, err = summary.Encode(merged)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var installed *summary.Summary
	err = step("server.install", func() error {
		if err := step("summary.decode", func() (err error) {
			installed, err = summary.Decode(encoded)
			return err
		}); err != nil {
			return err
		}
		return store(step, backend, encoded)
	})
	return installed, encoded, err
}

// planShards splits rel into at most want contiguous row ranges of
// ceil(rows/want) rows and renders each to CSV, the plan darc's
// coordinator uses.
func planShards(step stepFunc, rel *relation.Relation, want int) ([][]byte, error) {
	rows := rel.Len()
	per := (rows + want - 1) / want
	var out [][]byte
	for start := 0; start < rows; start += per {
		sub := relation.NewRelation(rel.Schema())
		for i := start; i < min(start+per, rows); i++ {
			if err := sub.Append(rel.Tuple(i)); err != nil {
				return nil, err
			}
		}
		var buf bytes.Buffer
		if err := step("relation.write_csv", func() error { return relation.WriteCSV(&buf, sub) }); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

// render answers q from sum exactly as dard renders a query response.
func render(step stepFunc, sum *summary.Summary, q core.QueryOptions) ([]byte, error) {
	var res *core.Result
	if err := step("core.query_summary", func() (err error) {
		res, err = core.QuerySummary(sum, q)
		return err
	}); err != nil {
		return nil, err
	}
	var schema *relation.Schema
	var part *relation.Partitioning
	if err := step("summary.schema", func() (err error) {
		if schema, err = sum.Schema(); err != nil {
			return err
		}
		part, err = sum.Partitioning(schema)
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := step("core.write_json", func() error {
		return core.WriteJSON(&buf, res, relation.NewRelation(schema), part)
	})
	return buf.Bytes(), err
}
