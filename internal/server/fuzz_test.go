package server

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzQueryBody fuzzes decodeQuery, the request-body decoder of the
// query and diff endpoints, over arbitrary bytes. Either the body is
// refused (the handlers answer 400) or the options it yields pass
// Validate and their canonical cache key round-trips through
// core.ParseCanonicalKey — so any accepted body names exactly one
// cache entry.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`null`,
		`{"metric":"D0","frequencyFraction":0.05,"degreeFactor":0.5}`,
		`{"metric":"D4","graphFactor":3,"maxAntecedent":1,"maxConsequent":1,"globalRefine":false,"pruneImages":false}`,
		`{"measures":true,"antecedentGroups":["b","a","a"],"consequentGroups":["Salary"],"sweepFactors":[0.25,0.5,1],"topK":3,"workers":8}`,
		`{"metric":"D9"}`,
		`{"metric":2}`,
		`{"degreeFactor":-1}`,
		`{"sweepFactors":[1,0.5]}`,
		`{"bogus":1}`,
		`{"topK":5} trailing`,
		`[1,2]`,
		`{"minClusterSize":1e400}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := decodeQuery(body)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted body %q yields invalid options: %v", body, err)
		}
		key := q.CanonicalKey()
		parsed, err := core.ParseCanonicalKey(key)
		if err != nil {
			t.Fatalf("accepted body %q: key %q does not parse: %v", body, key, err)
		}
		if again := parsed.CanonicalKey(); again != key {
			t.Fatalf("key of body %q does not round-trip:\n  first  %q\n  second %q", body, key, again)
		}
		q.Workers = 0
		if !reflect.DeepEqual(normalized(parsed), normalized(q)) {
			t.Fatalf("body %q: parsed key lost information:\n  decoded %+v\n  parsed  %+v", body, q, parsed)
		}
	})
}

// normalized maps empty slices to nil: the canonical key renders both
// as [], and ParseCanonicalKey returns nil.
func normalized(q core.QueryOptions) core.QueryOptions {
	if len(q.AntecedentGroups) == 0 {
		q.AntecedentGroups = nil
	}
	if len(q.ConsequentGroups) == 0 {
		q.ConsequentGroups = nil
	}
	if len(q.SweepFactors) == 0 {
		q.SweepFactors = nil
	}
	return q
}
