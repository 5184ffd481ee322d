// Remote query mode: `darminer query -addr http://host:8344 name` asks
// a running dard server (cmd/dard) for the rules of a catalog summary
// instead of decoding a local .acfsum file. The server renders exactly
// the bytes the local path would, so -json output is interchangeable
// between the two modes. The request body is the QueryOptions the local
// path would run, as JSON: one options builder serves both paths, so the
// remote path rejects exactly what the local one does and ships the same
// normalized filters. The HTTP plumbing lives in pkg/client — the
// same typed client the darc cluster coordinator dispatches shards
// through.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"

	"repro/internal/core"
	"repro/pkg/client"
)

// newRemoteClient validates the -addr flag into a typed client.
func newRemoteClient(addr string) (*client.Client, error) {
	c, err := client.New(addr)
	if err != nil {
		return nil, fmt.Errorf("-addr %q is not a base URL like http://host:8344", addr)
	}
	return c, nil
}

// runRemoteQuery POSTs the query to addr's catalog and prints the
// result: verbatim JSON with -json (byte-identical to the local path,
// wall-clock lines aside), a rule listing otherwise.
func runRemoteQuery(w io.Writer, addr, name string, cfg queryConfig) error {
	c, err := newRemoteClient(addr)
	if err != nil {
		return err
	}
	q, err := cfg.options()
	if err != nil {
		return err
	}
	body, err := json.Marshal(q)
	if err != nil {
		return err
	}
	payload, meta, err := c.QueryJSON(context.Background(), name, body)
	if err != nil {
		return err
	}

	if cfg.asJSON {
		_, err := w.Write(payload)
		return err
	}
	var doc core.ExportedResult
	if err := json.Unmarshal(payload, &doc); err != nil {
		return fmt.Errorf("parsing server response: %w", err)
	}
	base, _ := url.Parse(c.Base())
	fmt.Fprintf(w, "summary %q on %s: %d tuples (version %s, cache %s)\n",
		name, base.Host, doc.Tuples, meta.Version, meta.Cache)
	fmt.Fprintf(w, "phase II: %d cliques, %d rules\n", doc.PhaseII.Cliques, len(doc.Rules))
	for _, p := range doc.Sweep {
		fmt.Fprintf(w, "sweep degree<=%g: %d rules\n", p.Factor, p.Rules)
	}
	for i, r := range doc.Rules {
		if cfg.top > 0 && i == cfg.top {
			fmt.Fprintf(w, "... %d more rules\n", len(doc.Rules)-cfg.top)
			break
		}
		fmt.Fprintln(w, r.Description+formatMeasures(r.Measures))
	}
	return nil
}

// runRemoteDiff POSTs a diff of two catalog summaries and prints it:
// verbatim JSON with -json (byte-identical to the local two-file path
// over the same data), the printDiff listing otherwise.
func runRemoteDiff(w io.Writer, addr, oldName, newName string, cfg queryConfig) error {
	c, err := newRemoteClient(addr)
	if err != nil {
		return err
	}
	q, err := cfg.options()
	if err != nil {
		return err
	}
	body, err := json.Marshal(q)
	if err != nil {
		return err
	}
	payload, err := c.DiffJSON(context.Background(), oldName, newName, body)
	if err != nil {
		return err
	}
	if cfg.asJSON {
		_, err := w.Write(payload)
		return err
	}
	var d core.RuleDiff
	if err := json.Unmarshal(payload, &d); err != nil {
		return fmt.Errorf("parsing server response: %w", err)
	}
	printDiff(w, oldName, newName, d)
	return nil
}

// runClusterIngest ships a CSV to a darc coordinator, which shards it
// across the worker pool and installs the merged summary under name.
func runClusterIngest(w io.Writer, addr, name, path string, cfg ingestConfig) error {
	c, err := newRemoteClient(addr)
	if err != nil {
		return err
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := c.ClusterIngest(context.Background(), name, csv, client.IngestOptions{
		D0: cfg.d0, Memory: cfg.memory, Workers: cfg.workers, Groups: cfg.groups,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cluster-ingested %d tuples into %d groups (%d clusters) as %q version %d (%d bytes)\n",
		res.Tuples, res.Groups, res.Clusters, res.Name, res.Version, res.Bytes)
	return nil
}
