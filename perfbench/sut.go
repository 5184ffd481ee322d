package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/pkg/client"
)

// clearedEnv names the runtime knobs that never reach the SUT. The SUT
// gets only PATH and TMPDIR, so these and any other stray setting in
// the caller's environment cannot change what is measured; the list is
// printed in the run record.
var clearedEnv = []string{"GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS"}

// sutEnv is the whole environment of every SUT process.
func sutEnv(tmp string) []string {
	return []string{"PATH=" + os.Getenv("PATH"), "TMPDIR=" + tmp}
}

// Both daemons log this line once their listener is bound.
var listenRE = regexp.MustCompile(`listening on (\S+) \(`)

// proc is one running SUT daemon.
type proc struct {
	name   string
	cmd    *exec.Cmd
	base   string // http://host:port
	client *client.Client
	exited chan struct{} // closed once the process has been reaped

	mu   sync.Mutex
	tail []string // last stderr lines, for failure reports
}

// startProc launches bin and returns once it is listening and answers
// /healthz. The port comes from the daemon's own log line, so runs
// never race each other for a fixed port.
func startProc(ctx context.Context, name, bin string, env []string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = env
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1) // one send; the reader never blocks on it
	go func() {
		defer close(p.exited)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		cmd.Wait() //nolint:errcheck // a stopped daemon exits by signal
	}()

	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.logTail())
	case <-timer.C:
		p.stop()
		return nil, fmt.Errorf("%s did not start listening within 30s: %s", name, p.logTail())
	}
	if p.client, err = client.New(p.base); err != nil {
		p.stop()
		return nil, err
	}
	if err := p.client.Health(ctx); err != nil {
		p.stop()
		return nil, fmt.Errorf("%s health check: %w", name, err)
	}
	return p, nil
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop asks the daemon to drain, kills it if it does not exit within
// ten seconds, and returns once it has been reaped.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-p.exited:
		return
	case <-time.After(10 * time.Second):
	}
	p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-p.exited
}

// fleet is the set of daemons one set-up launched.
type fleet []*proc

func (f fleet) stop() {
	for i := len(f) - 1; i >= 0; i-- {
		f[i].stop()
	}
}

func (f fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
