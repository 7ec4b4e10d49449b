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
	"strconv"
	"strings"
	"syscall"
	"time"

	"crn/internal/telemetry"
)

// readyPoll is the readiness polling period. It must stay far below the
// shortest interval it bounds: recovery takes tens of milliseconds on a
// 2-core VM, so a 10ms poll would add ±12% to recover_s.
const readyPoll = 200 * time.Microsecond

// cyclePoll is the polling period while a retrain cycle runs. A cycle takes
// about 1.5s, and every /healthz poll costs crnserve ~0.5ms of CPU, so this
// trades ±2.5ms of retrain_s resolution for a small load.
const cyclePoll = 5 * time.Millisecond

// server is one crnserve child process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	exited  chan struct{}
	waitErr error
	log     *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts crnserve with args plus a fresh loopback -addr and returns
// once /readyz answers 200, with the time from process start to that answer.
func launch(ctx context.Context, bin string, args []string, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start crnserve: %w", err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(ctx, 120*time.Second); err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("%w (log: %s)", err, logPath)
	}
	return s, time.Since(start), nil
}

// waitReady polls /readyz on fresh connections until it answers 200. The
// listener opens only after crnserve marks itself ready, so refused
// connections are the normal not-yet state.
func (s *server) waitReady(ctx context.Context, limit time.Duration) error {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("crnserve exited before ready: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("crnserve not ready in time")
		}
		time.Sleep(readyPoll)
	}
}

// kill sends SIGKILL and waits for the process to end.
func (s *server) kill() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.log.Close()
}

const clkTck = 100 // USER_HZ on Linux

// cpuTime reads crnserve's CPU time (user+system) from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSS reads crnserve's peak resident set (VmHWM) in MiB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// healthz is the subset of crnserve's /healthz the benchmark reads.
type healthz struct {
	PoolSize int `json:"pool_size"`
	Online   *struct {
		Generation uint64 `json:"generation"`
		Collector  struct {
			Staged  uint64 `json:"staged"`
			Drained uint64 `json:"drained"`
		} `json:"collector"`
		Trainer struct {
			Promotions  uint64 `json:"promotions"`
			Rejections  uint64 `json:"rejections"`
			TrainErrors uint64 `json:"train_errors"`
			OraclePairs uint64 `json:"oracle_pairs"`
		} `json:"trainer"`
	} `json:"online"`
	Durable *struct {
		WAL struct {
			Syncs uint64 `json:"syncs"`
		} `json:"wal"`
		ReplayedRecords uint64 `json:"replayed_records"`
	} `json:"durable"`
}

// cyclesEnded is the trainer's count of finished retrain cycles.
func (h *healthz) cyclesEnded() uint64 {
	t := h.Online.Trainer
	return t.Promotions + t.Rejections + t.TrainErrors
}

func (s *server) healthz(c *http.Client) (*healthz, error) {
	resp, err := c.Get(s.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("/healthz: %w", err)
	}
	if h.Online == nil || h.Durable == nil {
		return nil, errors.New("/healthz: online or durable section missing")
	}
	return &h, nil
}

// snapshot is one scrape of crnserve's counters at a phase boundary.
type snapshot struct {
	fam    map[string]*telemetry.ParsedFamily
	health *healthz
	cpu    time.Duration
}

func (s *server) snapshot(c *http.Client) (*snapshot, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	fam, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	h, err := s.healthz(c)
	if err != nil {
		return nil, err
	}
	cpu, err := s.cpuTime()
	if err != nil {
		return nil, err
	}
	return &snapshot{fam: fam, health: h, cpu: cpu}, nil
}

// counter returns a counter sample (label key=value, or unlabeled for "").
func (s *snapshot) counter(name, key, value string) float64 {
	v, _ := s.fam[name].Sample(key, value)
	return v
}

// hist returns a histogram child, or an empty one when absent.
func (s *snapshot) hist(name, key, value string) *telemetry.ParsedHist {
	if h := s.fam[name].Hist(key, value); h != nil {
		return h
	}
	return &telemetry.ParsedHist{}
}

// delta is the change of counters and histograms between two snapshots.
type delta struct{ a, b *snapshot }

func (d delta) counter(name, key, value string) float64 {
	return d.b.counter(name, key, value) - d.a.counter(name, key, value)
}

func (d delta) hist(name, key, value string) *telemetry.ParsedHist {
	return d.b.hist(name, key, value).Sub(d.a.hist(name, key, value))
}

// histMean is the mean observation of a histogram delta, 0 when empty.
func histMean(h *telemetry.ParsedHist) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}
