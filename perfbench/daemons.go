package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one shardd or storerd child process, listening on
// kernel-assigned loopback ports in a temporary directory of its own.
type daemon struct {
	name    string
	dir     string
	cmd     *exec.Cmd
	done    chan struct{} // closed when the process has exited
	stderr  bytes.Buffer
	addr    string // wire protocol
	metrics string // debug listener serving /metrics
}

// startDaemon runs bin with the flags args returns for the daemon's
// directory plus the listener flags, and waits until it has published
// both addresses. On error nothing is left running or on disk.
func startDaemon(ctx context.Context, bin, parent, name string, args func(dir string) []string) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, name+"-")
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, dir: dir, done: make(chan struct{})}
	addrFile := filepath.Join(dir, "addr")
	metricsFile := filepath.Join(dir, "metrics-addr")
	flags := append(args(dir),
		"-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-metrics-listen", "127.0.0.1:0", "-metrics-addr-file", metricsFile)
	d.cmd = exec.Command(bin, flags...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	// The kernel kills the daemon if the load process dies first.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = d.cmd.Wait() // exit status is irrelevant: stop kills it
		close(d.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for d.addr == "" || d.metrics == "" {
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("%s exited during start-up: %s", name, strings.TrimSpace(d.stderr.String()))
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s did not publish its addresses within 10s", name)
		}
		d.addr = readAddr(addrFile)
		d.metrics = readAddr(metricsFile)
	}
	return d, nil
}

// readAddr returns the address in a daemon's address file, or "" while
// it is not written yet.
func readAddr(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// hwmMB is the daemon's peak resident set size so far.
func (d *daemon) hwmMB() (float64, error) {
	return vmHWM(strconv.Itoa(d.cmd.Process.Pid))
}

// scrape fetches the daemon's /metrics exposition.
func (d *daemon) scrape() ([]byte, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + d.metrics + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// diskBytes is the size of the files under the daemon's directory.
func (d *daemon) diskBytes() int64 { return dirBytes(d.dir) }

// stop kills the daemon, waits for it to exit and removes its
// directory. It is safe to call more than once.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Kill() // fails only if it already exited
		<-d.done
	}
	os.RemoveAll(d.dir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // files may vanish mid-walk (retired generations)
	})
	return n
}
