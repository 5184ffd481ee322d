// Package server implements dard, the long-running DAR mining daemon:
// a stdlib net/http service over the Ingest → Summary → Query split.
// It owns a catalog of named, versioned .acfsum artifacts persisted
// under a data dir (loaded lazily, evicted under an LRU byte budget)
// and serves
//
//	POST /v1/ingest?name=N[&d0=…&memory=…&workers=…&groups=…]   CSV body → stored summary
//	                (workers defaults to, and is capped at, all cores;
//	                results are bit-identical at any worker count)
//	POST /v1/ingest/shard?d0s=…[&memory=…&workers=…&groups=…]   CSV shard → .acfsum bytes (stateless; see shard.go)
//	PUT  /v1/summaries/{name}                                   .acfsum body → installed artifact
//	POST /v1/summaries/{name}/merge                             .acfsum shard body → merged artifact
//	POST /v1/summaries/{name}/query                             JSON options → rules
//	POST /v1/summaries/{name}/diff/{other}                      JSON options → rule diff name → other
//	GET  /v1/summaries[/{name}]                                 catalog inspection
//	GET  /metrics                                               expvar-style counters and gauges
//
// Query serving is built for repeated load: identical in-flight
// queries collapse into one execution (singleflight), finished
// responses live in an LRU byte-budget cache keyed by (summary
// version, canonical options) and invalidated by merge/re-ingest, and
// every request runs under a body-size limit and a timeout. A served
// query is bit-identical to `darminer ingest | query` over the same
// data — the differential tests in cmd/darminer pin this.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// decodeQuery parses the JSON body of the query and diff endpoints: a
// core.QueryOptions document decoded onto core.DefaultQueryOptions, so
// absent fields keep their defaults and `{}` (or an empty body) is the
// default query. Unknown fields are rejected. Group filters are
// normalized (sorted, deduplicated), so two spellings of one filter
// share a cache entry; sweep factors are not — their order is part of
// the request contract. Workers only sets execution parallelism and is
// capped at GOMAXPROCS — results are bit-identical at any count, which
// is why it is absent from the canonical cache key.
func decodeQuery(body []byte) (core.QueryOptions, error) {
	q := core.DefaultQueryOptions()
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			return q, fmt.Errorf("parsing query options: %w", err)
		}
	}
	core.NormalizeGroupFilters(&q)
	q.Workers = clampWorkers(q.Workers)
	return q, q.Validate()
}

// ingestResponse acknowledges POST /v1/ingest.
type ingestResponse struct {
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	Tuples   int64  `json:"tuples"`
	Groups   int    `json:"groups"`
	Clusters int    `json:"clusters"`
	Bytes    int    `json:"bytes"`
}

// mergeResponse acknowledges POST /v1/summaries/{name}/merge.
type mergeResponse struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Tuples  int64  `json:"tuples"`
	Shards  int    `json:"shards"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}
