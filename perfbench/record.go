package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The run record printed with every report: what ran, on what, with
// which inputs and exactly how many ops of each class.

// workloadWhy returns the rationale BENCHMARK.json stores with the
// workload's definition; a workload it does not define is an error.
func workloadWhy(root, workload string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return "", err
	}
	var def struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range def.Workloads {
		if w.Name == workload {
			return w.Why, nil
		}
	}
	return "", fmt.Errorf("workload %q is not defined in BENCHMARK.json", workload)
}

// fingerprint describes the hardware and software of the run.
func fingerprint(ctx context.Context, root, dataDir string) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go":            runtime.Version(),
		"commit":        commit(ctx, root),
		"source_sha256": sourceDigest(root),
		"data_dir_fs":   filesystem(dataDir),
		"flush_policy":  "flat storage: every put fsyncs a staged file, renames it into place and fsyncs the directory",
	}
}

// cpuTicks reads the machine's steal and total CPU time, in clock
// ticks, from /proc/stat; ok is false where there is none. Steal is
// time the host ran something else while this machine had work: its
// share during the timed ops, in the run record, tells a slow run on a
// busy host from a slow program.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPULine(line)
}

// parseCPULine parses the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal, then guest times
// that user time already counts.
func parseCPULine(line string) (steal, total uint64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" outside a git
// repository; the source digest identifies the code either way.
func commit(ctx context.Context, root string) string {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every Go file of the program (cmd,
// internal, pkg) in path order.
func sourceDigest(root string) string {
	var paths []string
	for _, dir := range []string{"cmd", "internal", "pkg"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // a missing dir hashes as empty
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				paths = append(paths, path)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, paths...) {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// filesystem names the filesystem holding dir by its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
