package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	dar "repro"
)

// writeTestCSV writes a small planted workload and returns its path.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	schema := dar.MustSchema(
		dar.Attribute{Name: "Age", Kind: dar.Interval},
		dar.Attribute{Name: "Salary", Kind: dar.Interval},
	)
	rel := dar.NewRelation(schema)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			rel.MustAppend([]float64{30 + rng.NormFloat64(), 40000 + rng.NormFloat64()*200})
		} else {
			rel.MustAppend([]float64{55 + rng.NormFloat64(), 90000 + rng.NormFloat64()*200})
		}
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dar.WriteCSV(f, rel); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDAR(t *testing.T) {
	path := writeTestCSV(t)
	var buf bytes.Buffer
	err := run(&buf, path, runConfig{algo: "dar", d0: 2000, minsup: 0.1, degree: 1, minconf: 0.6, metric: "D2", memory: 0, nparts: 10, top: 0, asJSON: false})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "loaded 400 tuples") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "⇒") || !strings.Contains(out, "degree") {
		t.Errorf("no rules printed:\n%s", out)
	}
}

func TestRunDARJSON(t *testing.T) {
	path := writeTestCSV(t)
	var buf bytes.Buffer
	err := run(&buf, path, runConfig{algo: "dar", d0: 2000, minsup: 0.1, degree: 1, minconf: 0.6, metric: "D2", memory: 0, nparts: 10, top: 0, asJSON: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc struct {
		Tuples int `json:"tuples"`
		Rules  []struct {
			Degree float64 `json:"degree"`
		} `json:"rules"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Tuples != 400 || len(doc.Rules) == 0 {
		t.Errorf("JSON doc = %+v", doc)
	}
}

func TestRunQARAndSA96(t *testing.T) {
	path := writeTestCSV(t)
	for _, algo := range []string{"qar", "sa96"} {
		var buf bytes.Buffer
		// Two equi-depth partitions align with the two planted bands, so
		// the SA96 baseline finds confident range rules.
		err := run(&buf, path, runConfig{algo: algo, d0: 2000, minsup: 0.1, degree: 1, minconf: 0.8, metric: "D2", nparts: 2, top: 5})
		if err != nil {
			t.Fatalf("run(%s): %v", algo, err)
		}
		if !strings.Contains(buf.String(), "⇒") {
			t.Errorf("%s printed no rules:\n%s", algo, buf.String())
		}
	}
}

func TestRunTopTruncation(t *testing.T) {
	path := writeTestCSV(t)
	var buf bytes.Buffer
	if err := run(&buf, path, runConfig{algo: "dar", d0: 2000, minsup: 0.1, degree: 1, minconf: 0.6, metric: "D2", memory: 0, nparts: 10, top: 1, asJSON: false}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "more rules") {
		t.Errorf("top=1 did not truncate:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestCSV(t)
	var buf bytes.Buffer
	if err := run(&buf, filepath.Join(t.TempDir(), "missing.csv"), runConfig{algo: "dar", d0: 1, minsup: 0.1, degree: 1, minconf: 0.6, metric: "D2", nparts: 10}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(&buf, path, runConfig{algo: "bogus", d0: 1, minsup: 0.1, degree: 1, minconf: 0.6, metric: "D2", memory: 0, nparts: 10, top: 0, asJSON: false}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(&buf, path, runConfig{algo: "dar", d0: 1, minsup: 0.1, degree: 1, minconf: 0.6, metric: "D9", memory: 0, nparts: 10, top: 0, asJSON: false}); err == nil {
		t.Error("unknown metric accepted")
	}
}

// TestMainRejectsNaNDegree runs the real entry point in a child process:
// `darminer -degree NaN data.csv` must exit non-zero with the validator's
// message rather than print an empty rule list.
func TestMainRejectsNaNDegree(t *testing.T) {
	if args := os.Getenv("DARMINER_TEST_ARGS"); args != "" {
		os.Args = append([]string{"darminer"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMainRejectsNaNDegree$")
	cmd.Env = append(os.Environ(), "DARMINER_TEST_ARGS=-d0 2000 -degree NaN "+writeTestCSV(t))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("darminer -degree NaN: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "DegreeFactor") {
		t.Errorf("darminer -degree NaN printed no DegreeFactor error:\n%s", out)
	}
}

func TestRunClassical(t *testing.T) {
	path := writeTestCSV(t)
	var buf bytes.Buffer
	if err := run(&buf, path, runConfig{algo: "classical", d0: 0, minsup: 0.2, degree: 1, minconf: 0.8, metric: "D2", memory: 0, nparts: 10, top: 0, asJSON: false}); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "exact: true") {
		t.Errorf("unlimited classical should be exact:\n%s", out)
	}
	// A tight byte budget forces collapses.
	buf.Reset()
	if err := run(&buf, path, runConfig{algo: "classical", d0: 0, minsup: 0.2, degree: 1, minconf: 0.8, metric: "D2", memory: 400, nparts: 10, top: 0, asJSON: false}); err != nil {
		t.Fatalf("run(budget): %v", err)
	}
	if !strings.Contains(buf.String(), "exact: false") {
		t.Errorf("budgeted classical stayed exact:\n%s", buf.String())
	}
}

func TestMaxEntriesFromBudget(t *testing.T) {
	if got := maxEntriesFromBudget(0, 5); got != 0 {
		t.Errorf("unlimited = %d", got)
	}
	if got := maxEntriesFromBudget(8000, 2); got != 100 {
		t.Errorf("budgeted = %d, want 100", got)
	}
	if got := maxEntriesFromBudget(10, 5); got != 2 {
		t.Errorf("floor = %d, want 2", got)
	}
}

func TestRunDARAutoThreshold(t *testing.T) {
	path := writeTestCSV(t)
	var buf bytes.Buffer
	// d0 = 0 derives per-attribute thresholds from the data.
	if err := run(&buf, path, runConfig{algo: "dar", d0: 0, minsup: 0.1, degree: 1, minconf: 0.6, metric: "D2", memory: 0, nparts: 10, top: 0, asJSON: false}); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "derived d0 per attribute") {
		t.Errorf("no derivation notice:\n%s", out)
	}
	if !strings.Contains(out, "⇒") {
		t.Errorf("no rules with derived thresholds:\n%s", out)
	}
}

func TestParseGroups(t *testing.T) {
	schema := dar.MustSchema(
		dar.Attribute{Name: "lat", Kind: dar.Interval},
		dar.Attribute{Name: "lon", Kind: dar.Interval},
		dar.Attribute{Name: "price", Kind: dar.Interval},
	)
	part, err := parseGroups(schema, "lat+lon")
	if err != nil {
		t.Fatalf("parseGroups: %v", err)
	}
	if part.NumGroups() != 2 {
		t.Fatalf("groups = %d, want 2", part.NumGroups())
	}
	if part.Group(0).Dims() != 2 || part.Group(1).Name != "price" {
		t.Errorf("groups = %+v, %+v", part.Group(0), part.Group(1))
	}
	if _, err := parseGroups(schema, "lat+bogus"); err == nil {
		t.Error("unknown attribute accepted")
	}
	// Empty spec: singletons.
	part, err = parseGroups(schema, " ")
	if err != nil || part.NumGroups() != 3 {
		t.Errorf("empty spec: %v, %v", part, err)
	}
	// Duplicate attribute across groups rejected by partitioning.
	if _, err := parseGroups(schema, "lat,lat+lon"); err == nil {
		t.Error("duplicate attribute accepted")
	}
}
