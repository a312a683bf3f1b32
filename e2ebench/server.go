package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bagconsistency/pkg/bagclient"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// server is one bagcd child process with its own data directory.
type server struct {
	cmd     *exec.Cmd
	dir     string
	addr    string
	flags   []string
	done    chan struct{}
	waitErr error
}

var listenRe = regexp.MustCompile(`listening on .* addr=(\S+)`)

// startServer spawns bagcd with its default flags plus a fresh data
// directory (the store is written through without fsync, the default)
// and waits until /healthz answers.
func startServer(ctx context.Context, bin, scratch string, procs int) (*server, error) {
	dir, err := os.MkdirTemp(scratch, "bagcd-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "bagcd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s := &server{dir: dir, done: make(chan struct{})}
	s.flags = []string{"-addr", "127.0.0.1:0", "-data-dir", filepath.Join(dir, "data")}
	s.cmd = exec.Command(bin, s.flags...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// bagcd dies with the generator, even when the generator is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bagcd: %w", err)
	}
	go func() { s.waitErr = s.cmd.Wait(); close(s.done) }()

	deadline := time.Now().Add(30 * time.Second)
	for s.addr == "" {
		select {
		case <-s.done:
			return nil, fmt.Errorf("bagcd exited during start-up (%v): %s", s.waitErr, logHead(logf.Name()))
		case <-time.After(2 * time.Millisecond):
		}
		if m := listenRe.FindStringSubmatch(logHead(logf.Name())); m != nil {
			s.addr = m[1]
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("bagcd did not report its address within 30s")
		}
	}
	cli, err := bagclient.New("http://" + s.addr)
	if err != nil {
		s.stop()
		return nil, err
	}
	for {
		h, err := cli.Health(ctx)
		if err == nil && h.Status == "ok" {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("bagcd not healthy within 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logHead returns the first lines of a log file, enough to hold the
// start-up lines.
func logHead(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	var b strings.Builder
	sc := bufio.NewScanner(f)
	for i := 0; i < 8 && sc.Scan(); i++ {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// stop sends SIGTERM, waits for the drain, kills after 10s, and removes
// the data directory.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	err := s.waitErr
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// cpuSeconds reads user+system CPU time of the bagcd process.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	str := string(data)
	rest := strings.Fields(str[strings.LastIndexByte(str, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(rest[11], 64)
	stime, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (utime + stime) / clockTicks, nil
}

// machineTicks reads the whole machine's CPU time from /proc/stat: the
// ticks the hypervisor stole and the total over every state.
func machineTicks() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest ...]
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for _, v := range f[1:9] {
		ticks, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad /proc/stat line: %w", err)
		}
		total += ticks
	}
	steal, _ = strconv.ParseFloat(f[8], 64)
	return steal, total, nil
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// promSnapshot is one /metrics scrape: series (name with labels, as
// rendered) to value.
type promSnapshot map[string]float64

func scrape(ctx context.Context, cli *bagclient.Client) (promSnapshot, error) {
	text, err := cli.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	snap := make(promSnapshot)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap, nil
}

// delta sums after-before over every series whose name (up to its label
// set) is name and whose labels contain every given label pair.
func delta(before, after promSnapshot, name string, labels ...string) float64 {
	total := 0.0
	for series, v := range after {
		if base, _, _ := strings.Cut(series, "{"); base != name {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(series, l)
		}
		if match {
			total += v - before[series]
		}
	}
	return total
}
