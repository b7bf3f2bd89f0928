package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tartree/internal/shard"
)

// findRoot walks up from the working directory to the module root: the
// driver starts the benchmark there, `go test` starts it in benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tarserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: cmd/tarserve not found above the working directory; run from the repository root")
		}
		dir = parent
	}
}

// buildServer compiles cmd/tarserve into dir and returns the binary's path.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "tarserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/tarserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building tarserve: %w\n%s", err, out)
	}
	return bin, nil
}

// proc is one spawned tarserve.
type proc struct {
	role    string
	url     string
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{} // closed once Wait returned
}

// fleet is the set of server processes of one repetition, plus the scratch
// directories (WAL, shard map) that die with it.
type fleet struct {
	procs   []*proc
	front   *proc // the process clients talk to
	scratch string
	setup   time.Duration // spawn of the first process → every /healthz 200
	http    *http.Client  // control-plane client (health, metrics)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (f *fleet) spawn(bin, role, logDir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(logDir, role+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logFile
	// Its own process group, so teardown reaches anything it might fork and
	// a terminal's Ctrl-C reaches only the harness, which then tears down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	p := &proc{role: role, url: "http://" + addr, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: death is noticed through p.exited
		logFile.Close()
		close(p.exited)
	}()
	f.procs = append(f.procs, p)
	return p, nil
}

// startFleet spawns the workload's topology and waits until every process
// answers /healthz 200. On any failure the partial fleet is torn down.
func startFleet(ctx context.Context, cfg *config, w workload, data *world, rep string) (_ *fleet, err error) {
	logDir := filepath.Join(cfg.outDir, w.name)
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{scratch: scratch, http: &http.Client{Timeout: 5 * time.Second}}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	args := []string{"-dataset", cfg.spec.Name, "-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64)}
	begin := time.Now()
	switch w.topo {
	case topoSingle:
		f.front, err = f.spawn(cfg.bin, "server"+rep, logDir, args...)
	case topoDurable:
		f.front, err = f.spawn(cfg.bin, "server"+rep, logDir, append(args, "-wal-dir", filepath.Join(scratch, "wal"))...)
	case topoSharded:
		var m *shard.Map
		if m, err = shard.Partition(data.effective, numShards, data.rect()); err != nil {
			return nil, err
		}
		mapPath := filepath.Join(scratch, "shards.json")
		if err = m.Save(mapPath); err != nil {
			return nil, err
		}
		urls := make([]string, numShards)
		for i := range urls {
			var p *proc
			p, err = f.spawn(cfg.bin, fmt.Sprintf("shard%d%s", i, rep), logDir,
				append(args, "-shard-of", fmt.Sprintf("%d/%d", i, numShards), "-shard-map", mapPath)...)
			if err != nil {
				return nil, err
			}
			urls[i] = p.url
		}
		f.front, err = f.spawn(cfg.bin, "coordinator"+rep, logDir,
			append(args, "-coordinator", strings.Join(urls, ","))...)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range f.procs {
		if err = f.waitReady(ctx, p); err != nil {
			return nil, err
		}
	}
	f.setup = time.Since(begin)
	return f, nil
}

// waitReady polls /healthz until it answers 200, the process dies, or ctx
// ends (the caller's deadline bounds a server that never becomes ready).
func (f *fleet) waitReady(ctx context.Context, p *proc) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := f.http.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before becoming ready; log tail:\n%s", p.role, logTail(p.logPath))
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w; log tail:\n%s", p.role, ctx.Err(), logTail(p.logPath))
		case <-tick.C:
		}
	}
}

// alive reports an error naming the first process that has died.
func (f *fleet) alive() error {
	for _, p := range f.procs {
		select {
		case <-p.exited:
			return fmt.Errorf("%s died during the run; log tail:\n%s", p.role, logTail(p.logPath))
		default:
		}
	}
	return nil
}

// stop terminates every process group, waits for each process to end, and
// removes the scratch directory. Safe on a partially started fleet.
func (f *fleet) stop() {
	for _, p := range f.procs {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM) // ESRCH if already gone
	}
	for _, p := range f.procs {
		select {
		case <-p.exited:
		case <-time.After(5 * time.Second):
			_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
			<-p.exited
		}
	}
	os.RemoveAll(f.scratch)
}

func logTail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}

// userHz is the unit of utime/stime in /proc/<pid>/stat; Linux fixes it at
// 100 for user space on every architecture Go supports.
const userHz = 100

// cpuTime returns utime+stime of one process from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * time.Second / userHz, nil
}

// serverCPU sums cpuTime over the fleet.
func (f *fleet) serverCPU() (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.procs {
		d, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// peakRSS sums VmHWM (MiB) over the fleet.
func (f *fleet) peakRSS() (float64, error) {
	var kib float64
	for _, p := range f.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		_, rest, found := strings.Cut(string(raw), "VmHWM:")
		if !found {
			return 0, fmt.Errorf("no VmHWM line for %s", p.role)
		}
		line, _, _ := strings.Cut(rest, "\n")
		v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(line), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM of %s: %w", p.role, err)
		}
		kib += v
	}
	return kib / 1024, nil
}

// scrape is one reading of a process's /metrics: series (name with labels,
// exactly as exposed) → value.
type scrape map[string]float64

func (f *fleet) scrape(p *proc) (scrape, error) {
	resp, err := f.http.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: status %d", p.role, resp.StatusCode)
	}
	out := make(scrape)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// scrapeAll sums the series of every process: a counter such as
// go_heap_allocs_bytes_total then covers the whole fleet.
func (f *fleet) scrapeAll() (scrape, error) {
	sum := make(scrape)
	for _, p := range f.procs {
		s, err := f.scrape(p)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			sum[k] += v
		}
	}
	return sum, nil
}

// healthz decodes the front process's /healthz document.
func (f *fleet) healthz() (map[string]any, error) {
	resp, err := f.http.Get(f.front.url + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return doc, nil
}
