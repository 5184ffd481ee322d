package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/summary"
	"repro/pkg/client"
)

// The traced run: the per-layer ledger. For each op kind it first
// times the op untraced against the daemons (the reconciliation's
// denominator), then has a replica process replay the op with a span
// around every layer call, in the handler's order and on the same
// inputs. The replica is a fresh process with the daemons' environment,
// so its heap and collector start where a daemon's do; replaying inside
// the load generator, whose heap holds every input and reference, would
// time the layers under a different garbage-collection load.
const (
	traceWrites = 8  // per ingest kind: relations 0-7, once each
	traceEpochs = 8  // of the query sequence, 200 ops
	traceMisses = 20 // replayed query misses
	layerReps   = 5
	// ledgerBound is the share of an op that may fall outside every
	// layer span before the ledger flags the op as not fully covered.
	ledgerBound = 0.15
)

// tracer wraps pipeline steps of one op in spans, nesting them under
// the step that is running. It is for one goroutine; a fan-out inside
// a step records its spans on the recorder with cur as their parent.
type tracer struct {
	rec *recorder
	op  string
	cur int
}

func (t *tracer) step(name string, fn func() error) error {
	id := t.rec.begin(t.op, t.cur, name)
	parent := t.cur
	t.cur = id
	err := fn()
	t.cur = parent
	t.rec.end(id)
	return err
}

// run records fn as one op whose root span is named root.
func (r *recorder) run(op, root string, fn func(t *tracer) error) error {
	t := &tracer{rec: r, op: op, cur: -1}
	return t.step(root, func() error { return fn(t) })
}

// ledger indexes the recorded spans by op for the per-layer figures.
type ledger struct {
	spans []span
	self  []float64
	root  map[string]span // op -> its root span
}

func newLedger(spans []span) *ledger {
	l := &ledger{spans: spans, self: selfTimes(spans), root: map[string]span{}}
	for _, s := range spans {
		if s.Parent < 0 {
			l.root[s.Op] = s
		}
	}
	return l
}

// ops returns the spans of every op whose root is named root, one
// slice per op, in op order.
func (l *ledger) ops(root string) [][]span {
	byOp := map[string][]span{}
	for _, s := range l.spans {
		if l.root[s.Op].Name == root {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	var out [][]span
	for _, op := range sortedKeys(byOp) {
		out = append(out, byOp[op])
	}
	return out
}

// selfMS is the median, over ops rooted at root, of the summed self
// time of the op's spans named layer.
func (l *ledger) selfMS(root, layer string) float64 {
	var perOp []float64
	for _, spans := range l.ops(root) {
		total := 0.0
		for _, s := range spans {
			if s.Name == layer && s.Parent >= 0 {
				total += l.self[s.ID]
			}
		}
		perOp = append(perOp, total)
	}
	return median(perOp)
}

// coveredMS is the median, over ops rooted at root, of the time their
// layer spans cover: the sum of every layer's self time, with
// concurrent shard spans counted once.
func (l *ledger) coveredMS(root string) float64 {
	var perOp []float64
	for _, spans := range l.ops(root) {
		r := l.root[spans[0].Op]
		perOp = append(perOp, r.ms()-l.self[r.ID])
	}
	return median(perOp)
}

// shardMS returns, per cluster op, the slowest shard round trip and
// its ratio to the fastest.
func (l *ledger) shardMS() (slowest, skew []float64) {
	for _, spans := range l.ops("cluster_ingest.op") {
		lo, hi := math.Inf(1), 0.0
		for _, s := range spans {
			if s.Name == "client.shard_ingest" {
				lo, hi = min(lo, s.ms()), max(hi, s.ms())
			}
		}
		slowest = append(slowest, hi)
		skew = append(skew, hi/lo)
	}
	return slowest, skew
}

// replaySpec tells a replica process what to replay. Inputs are CSV
// files for the ingest kinds, and artifacts 0, 1 and scaled summary 0
// for query.
type replaySpec struct {
	Kind    string        `json:"kind"`
	Inputs  []string      `json:"inputs"`
	Workers []string      `json:"workers,omitempty"`
	Queries []replayQuery `json:"queries,omitempty"`
	Dir     string        `json:"dir"`
	Out     string        `json:"out"`
}

// replayQuery is one query to replay: the artifact it runs on and the
// request body.
type replayQuery struct {
	Artifact int             `json:"artifact"`
	Body     json.RawMessage `json:"body"`
}

// replayOut is what a replica reports back: its spans, the figures it
// measured outside spans, and what each op produced, for the oracle.
type replayOut struct {
	Spans  []span             `json:"spans"`
	Values map[string]float64 `json:"values"`
	Writes [][3]int64         `json:"writes,omitempty"` // tuples, clusters, bytes
	Bodies []string           `json:"bodies,omitempty"` // sha256 of each answer, durations dropped
}

// traceReport is the traced run's result.
type traceReport struct {
	metrics map[string]float64
	flags   []string
	counts  *outcome
	spans   []span
}

func (b *bench) runTrace() (*traceReport, error) {
	rep := &traceReport{metrics: map[string]float64{}, counts: newOutcome()}
	m := rep.metrics
	e2e := map[string]float64{}

	rels, err := genRelations(b.seed, relations, ingestTuples)
	if err != nil {
		return nil, err
	}
	refs := make([]writeRef, len(rels))
	crefs := make([]writeRef, len(rels))
	if err := parallel(2*len(rels), func(i int) (err error) {
		if i < len(rels) {
			refs[i], err = ingestRef(rels[i])
		} else {
			crefs[i-len(rels)], err = clusterRef(rels[i-len(rels)])
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("reference pipeline: %w", err)
	}
	csvFiles, err := b.writeFiles("csv", rels)
	if err != nil {
		return nil, err
	}
	checkWrites := func(out *replayOut, refs []writeRef) {
		for i, w := range out.Writes {
			rep.counts.done("replay.write", 0, refs[i%len(refs)].check(w[0], int(w[1]), int(w[2])))
		}
	}

	// Ingest: untraced through dard, then replayed.
	dard, err := b.startDard("dard", b.dir("trace-ingest"))
	if err != nil {
		return nil, err
	}
	e2e["ingest.op"] = b.timeWrites(rep.counts, dard.client, false, rels, refs)
	dard.stop()
	ingest, err := b.replay(replaySpec{Kind: "ingest", Inputs: csvFiles})
	if err != nil {
		return nil, err
	}
	checkWrites(ingest, refs)

	// Cluster ingest: untraced through darc, then replayed with the
	// shards sent to the same workers.
	f, err := b.startCluster(b.dir("trace-cluster"))
	if err != nil {
		return nil, err
	}
	defer f.stop()
	darc := f[len(f)-1].client
	e2e["cluster_ingest.op"] = b.timeWrites(rep.counts, darc, true, rels, crefs)
	counters, err := darc.Metrics(b.ctx)
	if err != nil {
		return nil, err
	}
	m["cluster.shard_retries"] = float64(counters["cluster_shards_retried_total"])
	spec := replaySpec{Kind: "cluster_ingest", Inputs: csvFiles}
	for _, w := range f[:clusterShards] {
		spec.Workers = append(spec.Workers, w.base)
	}
	cluster, err := b.replay(spec)
	if err != nil {
		return nil, err
	}
	checkWrites(cluster, crefs)

	// Query: the sequence untraced through dard, then misses replayed.
	fx, err := newQueryFixture(b.seed, traceEpochs)
	if err != nil {
		return nil, err
	}
	qo, err := b.runQueries(fx)
	if err != nil {
		return nil, err
	}
	rep.counts.attempted += qo.attempted
	rep.counts.failed += qo.failed
	rep.counts.failures = append(rep.counts.failures, qo.failures...)
	for class, lat := range qo.lat {
		rep.counts.lat["query."+class] = lat
	}
	e2e["query.miss"] = median(qo.lat["miss"])
	served := 0
	for _, class := range []string{"hit", "miss", "shared", "scaled_hit", "scaled_miss", "scaled_shared"} {
		served += len(qo.lat[class])
	}
	m["server.cache_hit_ratio"] = float64(len(qo.lat["hit"])+len(qo.lat["scaled_hit"])) / float64(served)
	m["server.query_executions"] = float64(qo.server["query_executions_total"])
	artifacts, err := b.writeFiles("artifact", [][]byte{fx.artifacts[0], fx.artifacts[1], fx.scaled[0]})
	if err != nil {
		return nil, err
	}
	spec = replaySpec{Kind: "query", Inputs: artifacts}
	var want [][]byte
	for _, k := range sortedAnswerKeys(fx.answers) {
		if k[0] < scaledArtifact && len(want) < traceMisses {
			spec.Queries = append(spec.Queries, replayQuery{Artifact: k[0], Body: fx.seq.bodies[k[1]]})
			want = append(want, fx.answers[k])
		}
	}
	query, err := b.replay(spec)
	if err != nil {
		return nil, err
	}
	for i, digest := range query.Bodies {
		var err error
		if digest != answerDigest(want[i]) {
			err = fmt.Errorf("replayed query %d differs from the reference", i)
		}
		rep.counts.done("replay.query", 0, err)
	}

	for _, out := range []*replayOut{ingest, cluster, query} {
		base := len(rep.spans)
		for _, s := range out.Spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			rep.spans = append(rep.spans, s)
		}
		for k, v := range out.Values {
			m[k] = v
		}
	}
	l := newLedger(rep.spans)
	for _, layer := range []string{"relation.read_csv", "core.suggest_thresholds", "core.ingest", "summary.encode"} {
		m[layer+".ms"] = l.selfMS("ingest.op", layer)
	}
	m["relation.write_csv.ms"] = l.selfMS("cluster_ingest.op", "relation.write_csv")
	m["summary.merge_all.ms"] = l.selfMS("cluster_ingest.op", "summary.merge_all")
	slowest, skew := l.shardMS()
	m["client.shard_ingest.max_ms"] = median(slowest)
	m["client.shard_ingest.skew"] = median(skew)
	m["core.write_json.ms"] = l.selfMS("query.miss", "core.write_json")
	m["summary.decode.ms"] = l.selfMS("probe.decode", "summary.decode")
	m["core.query_summary.paper_ms"] = l.selfMS("probe.paper", "core.query_summary")
	m["core.query_summary.scaled_ms"] = l.selfMS("probe.scaled", "core.query_summary")
	m["core.query_summary.scaled_workers_n_ms"] = l.selfMS("probe.scaled_workers_n", "core.query_summary")
	for _, kind := range []string{"flat", "segment"} {
		m["storage."+kind+".put_ms"] = l.selfMS("probe.put."+kind, "storage."+kind+".put")
		m["storage."+kind+".open_ms"] = l.selfMS("probe.open."+kind, "storage."+kind+".open")
	}
	for _, r := range []struct{ metric, root string }{
		{"ingest.unaccounted_ratio", "ingest.op"},
		{"cluster_ingest.unaccounted_ratio", "cluster_ingest.op"},
		{"query.miss_unaccounted_ratio", "query.miss"},
	} {
		ratio := 1 - l.coveredMS(r.root)/e2e[r.root]
		m[r.metric] = ratio
		if ratio > ledgerBound {
			rep.flags = append(rep.flags, fmt.Sprintf("%s: %.0f%% of the untraced op (median %.1f ms) lies outside every layer span; some step of %s is not covered",
				r.metric, 100*ratio, e2e[r.root], r.root))
		}
	}
	return rep, nil
}

// timeWrites sends traceWrites checked ingests untraced and returns
// their median latency.
func (b *bench) timeWrites(o *outcome, c *client.Client, cluster bool, rels [][]byte, refs []writeRef) float64 {
	runtime.GC() // as in setUp: no collection of the preparation's garbage during timed ops
	var lat []float64
	for i := 0; i < traceWrites; i++ {
		_, ms, err := b.write(c, cluster, rels[i%len(rels)], refs[i%len(rels)])
		kind := "ingest"
		if cluster {
			kind = "cluster_ingest"
		}
		o.done(kind+".write", ms, err)
		lat = append(lat, ms)
	}
	return median(lat)
}

// writeFiles saves inputs for a replica under the run's scratch dir.
func (b *bench) writeFiles(prefix string, data [][]byte) ([]string, error) {
	var paths []string
	for i, d := range data {
		p := b.dir(fmt.Sprintf("%s%d", prefix, i))
		if err := os.WriteFile(p, d, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// replay runs spec in a replica process — this binary with -replay —
// under the daemons' environment, and returns what it reports.
func (b *bench) replay(spec replaySpec) (*replayOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec.Dir = b.dir("replay-" + spec.Kind)
	spec.Out = spec.Dir + ".out.json"
	specPath := spec.Dir + ".spec.json"
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(b.ctx, self, "-replay", specPath)
	cmd.Env = b.env
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("%s replica: %w: %s", spec.Kind, err, out)
	}
	if data, err = os.ReadFile(spec.Out); err != nil {
		return nil, err
	}
	var out replayOut
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s replica output: %w", spec.Kind, err)
	}
	return &out, nil
}

// runReplica is the replica process's whole job.
func runReplica(ctx context.Context, specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec replaySpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("replay spec %s: %w", specPath, err)
	}
	rec := newRecorder()
	out := &replayOut{Values: map[string]float64{}}
	switch spec.Kind {
	case "ingest", "cluster_ingest":
		err = replayWrites(ctx, rec, out, spec)
	case "query":
		err = replayQueries(rec, out, spec)
	default:
		err = fmt.Errorf("unknown replay kind %q", spec.Kind)
	}
	if err != nil {
		return err
	}
	out.Spans = rec.snapshot()
	if data, err = json.Marshal(out); err != nil {
		return err
	}
	return os.WriteFile(spec.Out, data, 0o644)
}

// replayWrites replays traceWrites ingests of the inputs in turn, each
// publishing into a flat store with real fsyncs as dard's catalog does.
// Each input is read just before its op and dropped after it, so the
// replica holds one request body at a time, as a daemon does.
func replayWrites(ctx context.Context, rec *recorder, out *replayOut, spec replaySpec) error {
	flat, err := storage.OpenFlat(spec.Dir, storage.FlatOptions{})
	if err != nil {
		return err
	}
	defer flat.Close()
	var workers []*client.Client
	for _, w := range spec.Workers {
		c, err := client.New(w)
		if err != nil {
			return err
		}
		workers = append(workers, c)
	}
	for i := 0; i < traceWrites; i++ {
		csv, err := os.ReadFile(spec.Inputs[i%len(spec.Inputs)])
		if err != nil {
			return err
		}
		var sum *summary.Summary
		var encoded []byte
		err = rec.run(fmt.Sprintf("%s-%02d", spec.Kind, i), spec.Kind+".op", func(t *tracer) (err error) {
			if spec.Kind == "ingest" {
				sum, encoded, err = ingestPipeline(t.step, csv, flat)
			} else {
				sum, encoded, err = clusterPipeline(t.step, csv, clusterShards, remoteShards(ctx, t, workers), flat)
			}
			return err
		})
		if err != nil {
			return err
		}
		out.Writes = append(out.Writes, [3]int64{sum.Tuples, int64(clusterCount(sum)), int64(len(encoded))})
		if i == 0 && spec.Kind == "ingest" {
			out.Values["core.ingest.clusters"] = float64(clusterCount(sum))
			out.Values["summary.encode.bytes"] = float64(len(encoded))
		}
	}
	if spec.Kind != "ingest" {
		return nil
	}
	csv, err := os.ReadFile(spec.Inputs[0])
	if err != nil {
		return err
	}
	return allocProbe(out.Values, csv)
}

// remoteShards sends each shard to its own worker concurrently, as the
// coordinator's dispatcher does on an idle pool, with one span per
// shard round trip.
func remoteShards(ctx context.Context, t *tracer, workers []*client.Client) dispatchFunc {
	return func(shards [][]byte, d0s []float64) ([][]byte, error) {
		out := make([][]byte, len(shards))
		errs := make([]error, len(shards))
		parent := t.cur
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := t.rec.begin(t.op, parent, "client.shard_ingest")
				out[i], errs[i] = workers[i%len(workers)].ShardIngest(ctx, shards[i], client.IngestOptions{D0s: d0s})
				t.rec.end(id)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// replayQueries decodes the artifacts as dard's catalog does on first
// use, replays each query as a cache miss, then runs the layer probes.
func replayQueries(rec *recorder, out *replayOut, spec replaySpec) error {
	artifacts := make([][]byte, len(spec.Inputs))
	sums := make([]*summary.Summary, len(spec.Inputs))
	for i, p := range spec.Inputs {
		var err error
		if artifacts[i], err = os.ReadFile(p); err != nil {
			return err
		}
		if sums[i], err = summary.Decode(artifacts[i]); err != nil {
			return err
		}
	}
	for i, q := range spec.Queries {
		var body []byte
		err := rec.run(fmt.Sprintf("miss-%02d", i), "query.miss", func(t *tracer) (err error) {
			body, err = replayMiss(t, sums[q.Artifact], q.Body)
			return err
		})
		if err != nil {
			return err
		}
		out.Bodies = append(out.Bodies, answerDigest(body))
		out.Values["core.write_json.bytes"] = float64(len(body))
	}
	return probes(rec, spec.Dir, artifacts, sums)
}

// replayMiss is dard's query handler on a cache miss: decode and
// resolve the options, compute the cache key, run Phase II and render.
func replayMiss(t *tracer, sum *summary.Summary, body []byte) ([]byte, error) {
	var q core.QueryOptions
	if err := t.step("server.parse_options", func() error {
		var opts queryOptions
		if err := json.Unmarshal(body, &opts); err != nil {
			return err
		}
		q = opts.core()
		if err := q.Validate(); err != nil {
			return err
		}
		_ = q.CanonicalKey()
		return nil
	}); err != nil {
		return nil, err
	}
	return render(t.step, sum, q)
}

func answerDigest(body []byte) string {
	h := sha256.Sum256(dropDurations(body))
	return hex.EncodeToString(h[:])
}

// probes times the layers a parameter sweep shows: artifact decode,
// Phase II on both summaries and worker counts, and both storage
// engines putting and reopening the query workload's artifacts.
func probes(rec *recorder, dir string, artifacts [][]byte, sums []*summary.Summary) error {
	type probe struct {
		root, layer string
		reps        int
		fn          func() error
	}
	paper := core.DefaultQueryOptions()
	paper.Workers = 0
	scaledN := paper
	scaledN.Workers = runtime.NumCPU()
	query := func(sum *summary.Summary, q core.QueryOptions) func() error {
		return func() error { _, err := core.QuerySummary(sum, q); return err }
	}
	list := []probe{
		{"probe.decode", "summary.decode", layerReps, func() error { _, err := summary.Decode(artifacts[0]); return err }},
		{"probe.paper", "core.query_summary", layerReps, query(sums[0], paper)},
		{"probe.scaled", "core.query_summary", 3, query(sums[scaledArtifact], paper)},
		{"probe.scaled_workers_n", "core.query_summary", 3, query(sums[scaledArtifact], scaledN)},
	}
	for _, kind := range []string{"flat", "segment"} {
		kdir := filepath.Join(dir, kind)
		store, err := openStore(kind, kdir)
		if err != nil {
			return err
		}
		defer func() { store.Close() }()
		list = append(list, probe{"probe.put." + kind, "storage." + kind + ".put", layerReps, func() error {
			_, err := store.Put(sumName, artifacts[0])
			return err
		}})
		if _, err := store.Put(scaledName(0), artifacts[scaledArtifact]); err != nil {
			return err
		}
		// Reopen after the puts and read every record back: what
		// dard's start-up asks of storage.
		list = append(list, probe{"probe.open." + kind, "storage." + kind + ".open", layerReps, func() error {
			if err := store.Close(); err != nil {
				return err
			}
			var err error
			if store, err = openStore(kind, kdir); err != nil {
				return err
			}
			recs, err := store.List()
			for _, r := range recs {
				if err == nil {
					_, _, err = store.Get(r.Name)
				}
			}
			return err
		}})
	}
	for _, p := range list {
		for i := 0; i < p.reps; i++ {
			if err := rec.run(fmt.Sprintf("%s-%d", p.root, i), p.root, func(t *tracer) error {
				return t.step(p.layer, p.fn)
			}); err != nil {
				return fmt.Errorf("%s: %w", p.root, err)
			}
		}
	}
	return nil
}

func openStore(kind, dir string) (storage.Backend, error) {
	if kind == "segment" {
		return storage.OpenSegment(dir, storage.SegmentOptions{})
	}
	return storage.OpenFlat(dir, storage.FlatOptions{})
}

// allocProbe measures allocations per tuple of CSV decode and Phase I
// on one relation, outside any timed span (reading the allocator's
// counters stops the world).
func allocProbe(m map[string]float64, csv []byte) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rel, part, err := parse(direct, csv)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	tuples := float64(rel.Len())
	m["relation.read_csv.allocs_per_tuple"] = float64(after.Mallocs-before.Mallocs) / tuples
	d0s, err := suggest(direct, rel, part)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&before)
	_, err = core.Ingest(rel, part, ingestOptions(d0s))
	runtime.ReadMemStats(&after)
	m["core.ingest.allocs_per_tuple"] = float64(after.Mallocs-before.Mallocs) / tuples
	return err
}

func sortedAnswerKeys(m map[[2]int][]byte) [][2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// writeSpans saves the run's spans as JSON, once the run is over.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
