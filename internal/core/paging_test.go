package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/summary"
)

// pagingGolden pins the SHA-256 of the .acfsum bytes TestPagedIngestMatchesGolden
// produces for each seed. They must never change with the worker count
// or the outlier layout.
var pagingGolden = map[int64]string{
	11: "f26c5145e645365977f5a20b5e9cd89e8df675f8fffd91d6450f27b9bb801103",
	37: "9f2e954c6d8c1c6f49bd1da5fedb81e4da9e94afc84ab9b4ef6b6c0be86e298f",
	89: "7595ef5639fec71b373ea3ddb0c57b1627698cd0ff79d88ab95997d05c099403",
}

// pagingRelation mixes a nominal group (tracked, never rebuilt) with
// dense interval bands and sparse stragglers, so a tight memory budget
// forces rebuilds that page small clusters out and Finish re-absorbs
// them.
func pagingRelation(seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	schema := relation.MustSchema(
		relation.Attribute{Name: "Job", Kind: relation.Nominal},
		relation.Attribute{Name: "a", Kind: relation.Interval},
		relation.Attribute{Name: "b", Kind: relation.Interval},
		relation.Attribute{Name: "c", Kind: relation.Interval},
	)
	rel := relation.NewRelation(schema)
	dict := schema.Attr(0).Dict
	jobs := []string{"DBA", "Mgr", "Dev", "Ops"}
	for i := 0; i < 3000; i++ {
		band := float64(rng.Intn(6))
		a, b := band*40+rng.NormFloat64(), band*80+7+rng.NormFloat64()
		if i%10 == 0 {
			a, b = rng.Float64()*1e4, rng.Float64()*1e4
		}
		rel.MustAppend([]float64{
			dict.Code(jobs[rng.Intn(len(jobs))]),
			a,
			b,
			float64(rng.Intn(4))*50 + rng.NormFloat64(),
		})
	}
	return rel
}

// TestPagedIngestMatchesGolden is the outlier-paging differential: Ingest
// with PageOutliers on and a memory budget tight enough to page clusters
// out and re-absorb them must encode byte-identical summaries at every
// worker count, equal to the pinned golden digest.
func TestPagedIngestMatchesGolden(t *testing.T) {
	for _, seed := range []int64{11, 37, 89} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rel := pagingRelation(seed)
			part := relation.SingletonPartitioning(rel.Schema())
			var want []byte
			for _, workers := range []int{1, 2, 3, 8, 33} {
				o := DefaultOptions()
				o.DiameterThreshold = 2
				o.FrequencyFraction = 0.02
				o.PageOutliers = true
				o.MemoryLimit = 12 << 10
				o.Workers = workers
				s, err := Ingest(rel, part, o)
				if err != nil {
					t.Fatalf("Ingest(workers=%d): %v", workers, err)
				}
				data, err := summary.Encode(s)
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				if want == nil {
					want = data
					paged, rebuilds := 0, 0
					for _, g := range s.Groups {
						paged += g.OutliersPaged
						rebuilds += g.Rebuilds
					}
					if paged == 0 || rebuilds == 0 {
						t.Fatalf("workload paged %d outliers over %d rebuilds; paging is untested", paged, rebuilds)
					}
					sum := sha256.Sum256(data)
					if got := hex.EncodeToString(sum[:]); got != pagingGolden[seed] {
						t.Errorf("summary digest %s, golden %s", got, pagingGolden[seed])
					}
					continue
				}
				if string(data) != string(want) {
					t.Fatalf("workers=%d: summary bytes diverged from workers=1", workers)
				}
			}
		})
	}
}

// TestPagedIngestConservesTuples is the paging invariant: however many
// clusters the memory budget pages out mid-scan, Finish re-absorbs them
// all, so each group's cluster N values sum to the tuple count.
func TestPagedIngestConservesTuples(t *testing.T) {
	for _, seed := range []int64{11, 37, 89} {
		rel := pagingRelation(seed)
		o := DefaultOptions()
		o.DiameterThreshold = 2
		o.FrequencyFraction = 0.02
		o.PageOutliers = true
		o.MemoryLimit = 12 << 10
		s, err := Ingest(rel, relation.SingletonPartitioning(rel.Schema()), o)
		if err != nil {
			t.Fatalf("seed %d: Ingest: %v", seed, err)
		}
		for g, sg := range s.Groups {
			var n int64
			for _, a := range sg.Clusters {
				n += a.N
			}
			if n != s.Tuples {
				t.Errorf("seed %d: group %d clusters hold %d of %d tuples", seed, g, n, s.Tuples)
			}
		}
	}
}
