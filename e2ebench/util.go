package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the CPU time (user plus system) of an exited child, from
// its rusage.
func cpuTime(cmd *exec.Cmd) time.Duration {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freeAddr returns a loopback address with a port nothing listens on now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// tailBuffer keeps the last bytes a child wrote to stderr, for error
// messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailMax:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// stopChild asks a daemon to drain with SIGTERM and waits for it to exit,
// killing it if it has not exited after the grace period.
func stopChild(cmd *exec.Cmd, grace time.Duration) error {
	if cmd.Process == nil {
		return nil
	}
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s did not exit within %v of SIGTERM", cmd.Path, grace)
	}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) (its default exclusive method).
func quartiles(v []float64) [3]float64 {
	s := sorted(v)
	n := len(s)
	var out [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// hwmWatch samples a child's peak resident set (VmHWM in
// /proc/<pid>/status) while it runs. The child's rusage cannot give it:
// its ru_maxrss also counts the parent's resident set at the moment of the
// fork, which here is the benchmark's own.
type hwmWatch struct {
	pid  int
	kb   atomic.Int64
	stop chan struct{}
	done chan struct{}
}

const hwmInterval = 5 * time.Millisecond

func watchHWM(pid int) *hwmWatch {
	h := &hwmWatch{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(hwmInterval)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *hwmWatch) sample() {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(h.pid) + "/status")
	if err != nil {
		return // exited
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err == nil && kb > h.kb.Load() {
				h.kb.Store(kb)
			}
			return
		}
	}
}

// peakMB stops sampling and returns the highest VmHWM seen, in MB. Call it
// before waiting for the child, while its /proc entry still has memory
// figures, so the last sample is taken as late as possible.
func (h *hwmWatch) peakMB() float64 {
	h.sample()
	close(h.stop)
	<-h.done
	return float64(h.kb.Load()) / 1024
}

// command is exec.Command for a child that must not outlive the benchmark:
// the kernel kills it if the benchmark dies first.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}
