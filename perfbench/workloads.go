package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/summary"
	"repro/pkg/client"
)

// Workload sizes. The ingest workloads cycle through relations of
// ingestTuples rows; the query workload serves summaries of a larger
// relation, where Phase II has real work. setupReps set-ups are timed
// per run and their median reported.
const (
	relations     = 10
	ingestTuples  = 8000
	queryTuples   = 20000
	clusterShards = 2
	setupReps     = 31
	warmWrites    = 3
)

// sizeFor is the number of writes in an ingest-workload run of the
// given length: 100 at the benchmark's 30 s, so every class's p90 has
// ten samples beyond it. The query workload runs sizeFor*2/5 epochs of
// 25 ops, 1000 ops at 30 s. The size depends on the requested length
// only, never on measured speed, so every run with the same arguments
// does the same work.
func sizeFor(seconds int) int { return (seconds*10 + 2) / 3 }

// bench carries what every workload run needs.
type bench struct {
	ctx     context.Context
	seed    int64
	seconds int
	bin     string // directory holding the dard and darc binaries
	work    string // per-run scratch directory, removed at exit
	env     []string
}

func (b *bench) dir(parts ...string) string {
	return filepath.Join(append([]string{b.work}, parts...)...)
}

// outcome is what one workload run observed.
type outcome struct {
	setupS    []float64
	ops       int       // ops in the timed sequence
	wallS     float64   // wall time of the timed sequence
	cycleOpsS []float64 // ops/s of each whole cycle of the sequence
	stealPct  float64   // host steal, % of CPU time during the sequence; -1 if unknown
	attempted int       // every checked request, set-up warm-ups included
	failed    int
	lat       map[string][]float64 // ms by served class
	peakRSSMB float64
	failures  []string
	planned   map[string]int
	server    map[string]int64 // the target's /metrics after the sequence
}

func newOutcome() *outcome { return &outcome{lat: map[string][]float64{}} }

// done books one checked request. A failed request has no latency.
func (o *outcome) done(class string, ms float64, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 5 {
			o.failures = append(o.failures, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	o.lat[class] = append(o.lat[class], ms)
}

func sinceMS(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

// timeSequence runs do(i) for every op of seq in order and records the
// sequence's wall time and the throughput of each of its cycles. The
// median cycle is what ops_per_s reports: a neighbour's burst that
// slows a few cycles moves the mean over the run, not the median.
func (o *outcome) timeSequence(seq sequence, do func(i int)) {
	steal0, total0, ok0 := cpuTicks()
	start := time.Now()
	cycleStart := start
	for i := range seq.ops {
		do(i)
		if (i+1)%seq.cycle == 0 {
			now := time.Now()
			o.cycleOpsS = append(o.cycleOpsS, float64(seq.cycle)/now.Sub(cycleStart).Seconds())
			cycleStart = now
		}
	}
	o.wallS = time.Since(start).Seconds()
	o.ops = len(seq.ops)
	o.stealPct = -1
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		o.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
}

// setUp launches the SUT setupReps times, each time over a fresh data
// dir that prepare (if any) lays out untimed, timing each launch (and
// whatever warm-up it does) until the first op could go out, and keeps
// the last fleet running.
func (b *bench) setUp(o *outcome, prepare func(dir string) error, launch func(dir string) (fleet, error)) (fleet, error) {
	// Collect the preparation's garbage now, so the load generator's
	// own collector does not run through the timed ops for it.
	runtime.GC()
	var f fleet
	for rep := 0; rep < setupReps; rep++ {
		if f != nil {
			f.stop()
			if err := os.RemoveAll(b.dir(fmt.Sprintf("setup%d", rep-1))); err != nil {
				return nil, err
			}
		}
		dir := b.dir(fmt.Sprintf("setup%d", rep))
		if prepare != nil {
			if err := prepare(dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if f, err = launch(dir); err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(start).Seconds())
	}
	return f, nil
}

// startDard launches one dard over dir with default flags.
func (b *bench) startDard(name, dir string) (*proc, error) {
	return startProc(b.ctx, name, filepath.Join(b.bin, "dard"), b.env, "-data", dir)
}

// startCluster launches the darc coordinator with its dard workers,
// no replication and a pinned shard plan.
func (b *bench) startCluster(dir string) (fleet, error) {
	var f fleet
	var addrs []string
	for w := 0; w < clusterShards; w++ {
		p, err := b.startDard(fmt.Sprintf("dard-w%d", w), filepath.Join(dir, fmt.Sprintf("w%d", w)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, p)
		addrs = append(addrs, p.base)
	}
	p, err := startProc(b.ctx, "darc", filepath.Join(b.bin, "darc"), b.env,
		"-data", filepath.Join(dir, "coord"), "-workers", strings.Join(addrs, ","), "-shards", strconv.Itoa(clusterShards))
	if err != nil {
		f.stop()
		return nil, err
	}
	return append(f, p), nil
}

// runWrites is the ingest and cluster_ingest workloads: one client,
// closed loop, writing the seeded relations in turn under one name
// and reading each fresh version back (see writeSequence).
func (b *bench) runWrites(cluster bool, writes int) (*outcome, error) {
	rels, err := genRelations(b.seed, relations, ingestTuples)
	if err != nil {
		return nil, err
	}
	refs := make([]writeRef, len(rels))
	if err := parallel(len(rels), func(i int) (err error) {
		if cluster {
			refs[i], err = clusterRef(rels[i])
		} else {
			refs[i], err = ingestRef(rels[i])
		}
		return err
	}); err != nil {
		return nil, fmt.Errorf("reference pipeline: %w", err)
	}

	o := newOutcome()
	f, err := b.setUp(o, nil, func(dir string) (fleet, error) {
		if cluster {
			return b.startCluster(dir)
		}
		p, err := b.startDard("dard", dir)
		return fleet{p}, err
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	target := f[len(f)-1].client

	seq := writeSequence(writes, len(rels))
	// Warm-up: a few checked, untimed writes, each read back, so the
	// fresh daemons have grown their heaps before the timed sequence.
	for w := 0; w < warmWrites; w++ {
		i := len(rels) - 1 - w%len(rels)
		o.done(b.write(target, cluster, rels[i], refs[i]))
		o.done(b.query(target, opQuery, sumName, seq.bodies[0], refs[i].answer))
	}
	o.lat = map[string][]float64{}
	o.planned = seq.planned
	cur := -1
	o.timeSequence(seq, func(i int) {
		op := seq.ops[i]
		if op.kind == opWrite {
			cur = op.arg
			o.done(b.write(target, cluster, rels[cur], refs[cur]))
			return
		}
		o.done(b.query(target, op.kind, sumName, seq.bodies[op.arg], refs[cur].answer))
	})
	return o, o.finish(b.ctx, f)
}

// finish records the fleet's peak memory and the target's counters.
func (o *outcome) finish(ctx context.Context, f fleet) error {
	var err error
	if o.peakRSSMB, err = f.peakRSSMB(); err != nil {
		return err
	}
	o.server, err = f[len(f)-1].client.Metrics(ctx)
	return err
}

// write sends one ingest and checks the reply against ref.
func (b *bench) write(c *client.Client, cluster bool, csv []byte, ref writeRef) (string, float64, error) {
	start := time.Now()
	var res client.IngestResult
	var err error
	if cluster {
		res, err = c.ClusterIngest(b.ctx, sumName, csv, client.IngestOptions{})
	} else {
		res, err = c.Ingest(b.ctx, sumName, csv, client.IngestOptions{})
	}
	ms := sinceMS(start)
	if err == nil {
		err = ref.check(res.Tuples, res.Clusters, res.Bytes)
	}
	return "write", ms, err
}

// query sends one query and byte-compares the body with want. The op
// is classed by the server's X-Dard-Cache header, never by what the
// sequence intended.
func (b *bench) query(c *client.Client, kind opKind, name string, options []byte, want []byte) (string, float64, error) {
	start := time.Now()
	body, meta, err := c.QueryJSON(b.ctx, name, options)
	ms := sinceMS(start)
	if err != nil {
		return "query", ms, err
	}
	class, err := classify(kind, meta.Cache)
	if err != nil {
		return "query", ms, err
	}
	if !sameAnswer(body, want) {
		return class, ms, fmt.Errorf("%s body (%d bytes) differs from the CLI pipeline's (%d bytes)", name, len(body), len(want))
	}
	return class, ms, nil
}

// sameAnswer compares two query bodies byte for byte except for the
// "durationMs" lines, the only wall-clock fields of the document (the
// repository's own served ≡ CLI tests drop the same lines).
func sameAnswer(a, b []byte) bool {
	return bytes.Equal(dropDurations(a), dropDurations(b))
}

func dropDurations(body []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"durationMs"`)) {
			out = append(out, line...)
		}
	}
	return out
}

// queryFixture is the query workload's input: two interchangeable
// artifacts for sumName, the scaled summaries, the op sequence and the
// CLI pipeline's answer to every query the sequence sends.
type queryFixture struct {
	artifacts [2][]byte
	scaled    [][]byte
	seq       sequence
	answers   map[[2]int][]byte
}

// scaledArtifact+i marks answers from scaled summary i in
// queryFixture.answers, beside artifacts 0 and 1.
const scaledArtifact = 2

// newQueryFixture builds the fixture for a sequence of epochs.
func newQueryFixture(seed int64, epochs int) (*queryFixture, error) {
	rels, err := genRelations(seed, scaledSummaries, queryTuples)
	if err != nil {
		return nil, err
	}
	// Artifacts 0 and 1 are relations 0 and 1 under the reference
	// thresholds; scaled summary i is relation i with every threshold
	// at a quarter, about three times the clusters.
	d0s, err := referenceD0s(queryTuples)
	if err != nil {
		return nil, err
	}
	type source struct {
		csv   []byte
		scale float64
	}
	srcs := []source{{rels[0], 1}, {rels[1], 1}}
	for _, rel := range rels {
		srcs = append(srcs, source{rel, 0.25})
	}
	encoded := make([][]byte, len(srcs))
	sums := make([]*summary.Summary, len(srcs))
	if err := parallel(len(srcs), func(i int) error {
		rel, part, err := parse(direct, srcs[i].csv)
		if err != nil {
			return err
		}
		scaled := make([]float64, len(d0s))
		for g, d0 := range d0s {
			scaled[g] = d0 * srcs[i].scale
		}
		_, enc, err := phaseOne(direct, rel, part, scaled)
		if err != nil {
			return err
		}
		encoded[i] = enc
		// The catalog serves what it decodes from the stored artifact.
		sums[i], err = summary.Decode(enc)
		return err
	}); err != nil {
		return nil, fmt.Errorf("building summaries: %w", err)
	}
	fx := &queryFixture{artifacts: [2][]byte{encoded[0], encoded[1]}, scaled: encoded[scaledArtifact:], answers: map[[2]int][]byte{}}
	var groups []string
	for _, g := range sums[0].Groups {
		groups = append(groups, g.Name)
	}
	fx.seq = querySequence(seed, epochs, groups)

	// Walk the sequence to find every (artifact, option) pair it asks.
	var need [][2]int
	want := func(k [2]int) {
		if _, ok := fx.answers[k]; !ok {
			fx.answers[k] = nil
			need = append(need, k)
		}
	}
	for i := 0; i < poolSize; i++ {
		want([2]int{0, i})
	}
	cur := 0
	for _, op := range fx.seq.ops {
		switch op.kind {
		case opWrite:
			cur = op.arg
		case opQuery:
			want([2]int{cur, op.arg})
		case opScaled:
			want([2]int{scaledArtifact + op.sum, op.arg})
		}
	}
	answers := make([][]byte, len(need))
	if err := parallel(len(need), func(i int) (err error) {
		answers[i], err = render(direct, sums[need[i][0]], fx.seq.options[need[i][1]].core())
		return err
	}); err != nil {
		return nil, fmt.Errorf("reference answers: %w", err)
	}
	for i, k := range need {
		fx.answers[k] = answers[i]
	}
	return fx, nil
}

// writeDataDir lays out a flat data dir holding artifact 0 as sumName
// and the scaled summaries, as dard would have stored them.
func (fx *queryFixture) writeDataDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, sumName+".acfsum"), fx.artifacts[0], 0o644); err != nil {
		return err
	}
	for i, a := range fx.scaled {
		if err := os.WriteFile(filepath.Join(dir, scaledName(i)+".acfsum"), a, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// warm sends the pool's queries, so the timed sequence starts with
// them cached.
func (b *bench) warm(o *outcome, c *client.Client, fx *queryFixture) {
	for i := 0; i < poolSize; i++ {
		o.done(b.query(c, opQuery, sumName, fx.seq.bodies[i], fx.answers[[2]int{0, i}]))
	}
}

// runQueries is the query workload: one client, closed loop, over a
// dard whose data dir was laid out before the timed set-up.
func (b *bench) runQueries(fx *queryFixture) (*outcome, error) {
	o := newOutcome()
	// The timed part: launch, storage recovery, catalog open, and the
	// pool warm-up.
	f, err := b.setUp(o, fx.writeDataDir, func(dir string) (fleet, error) {
		p, err := b.startDard("dard", dir)
		if err != nil {
			return nil, err
		}
		b.warm(o, p.client, fx)
		return fleet{p}, nil
	})
	if err != nil {
		return nil, err
	}
	defer f.stop()
	// Set-up warm-ups are checked, not timed as ops.
	o.lat = map[string][]float64{}
	o.planned = fx.seq.planned
	c := f[0].client

	cur := 0
	o.timeSequence(fx.seq, func(i int) {
		switch op := fx.seq.ops[i]; op.kind {
		case opWrite:
			cur = op.arg
			o.done(b.install(c, fx.artifacts[cur]))
		case opQuery:
			o.done(b.query(c, op.kind, sumName, fx.seq.bodies[op.arg], fx.answers[[2]int{cur, op.arg}]))
		case opScaled:
			o.done(b.query(c, op.kind, scaledName(op.sum), fx.seq.bodies[op.arg], fx.answers[[2]int{scaledArtifact + op.sum, op.arg}]))
		}
	})
	return o, o.finish(b.ctx, f)
}

// install PUTs an artifact over sumName and checks the reply.
func (b *bench) install(c *client.Client, artifact []byte) (string, float64, error) {
	start := time.Now()
	res, err := c.PutSummary(b.ctx, sumName, artifact)
	ms := sinceMS(start)
	if err == nil && res.Bytes != len(artifact) {
		err = fmt.Errorf("install acknowledged %d bytes, sent %d", res.Bytes, len(artifact))
	}
	return "write", ms, err
}
