package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one bfdnd process started by the benchmark.
type daemon struct {
	url string
	cmd *exec.Cmd
	log *os.File
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

// startFleet starts wl.daemons bfdnd processes with the workload's pinned
// flags and waits until each answers /healthz with 200. dir receives the
// daemons' logs.
func startFleet(ctx context.Context, bin, dir string, wl workload, client *http.Client) ([]*daemon, error) {
	var fleet []*daemon
	for i := 0; i < wl.daemons; i++ {
		d, err := startDaemon(bin, dir, wl, i)
		if err != nil {
			stopFleet(fleet)
			return nil, err
		}
		fleet = append(fleet, d)
	}
	for _, d := range fleet {
		if err := waitHealthy(ctx, client, d); err != nil {
			stopFleet(fleet)
			return nil, err
		}
	}
	return fleet, nil
}

func startDaemon(bin, dir string, wl workload, i int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{url: fmt.Sprintf("http://127.0.0.1:%d", port)}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-drain", "5s"}, wl.flags...)
	if d.log, err = os.Create(filepath.Join(dir, fmt.Sprintf("bfdnd-%d-%d.log", port, i))); err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// Should the benchmark die without stopping it, the daemon dies too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, fmt.Errorf("start bfdnd: %w", err)
	}
	return d, nil
}

// healthPoll is the /healthz polling interval. A daemon starts in a few
// milliseconds, so a coarser interval would dominate setup_s.
const healthPoll = 250 * time.Microsecond

// waitHealthy polls /healthz until it returns 200 or ten seconds pass.
func waitHealthy(ctx context.Context, client *http.Client, d *daemon) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(healthPoll)
	}
	return fmt.Errorf("bfdnd at %s not healthy within 10s (log: %s)", d.url, d.log.Name())
}

// stop sends SIGTERM and waits for the process to exit, killing it if the
// drain takes longer than ten seconds.
func (d *daemon) stop() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
	d.cmd = nil
}

func stopFleet(fleet []*daemon) {
	for _, d := range fleet {
		d.stop()
	}
}

// statusMB reads one kB-valued field (VmRSS, VmHWM) of the process's
// /proc status in MiB.
func (d *daemon) statusMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s line in /proc status", field)
}

// fleetMB sums a /proc status field over the fleet.
func fleetMB(fleet []*daemon, field string) (float64, error) {
	total := 0.0
	for _, d := range fleet {
		mb, err := d.statusMB(field)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// sampleRSS samples the fleet's summed resident set size every interval
// until stop is closed, then returns the samples.
func sampleRSS(fleet []*daemon, interval time.Duration, stop <-chan struct{}) []float64 {
	var samples []float64
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return samples
		case <-tick.C:
			if mb, err := fleetMB(fleet, "VmRSS"); err == nil {
				samples = append(samples, mb)
			}
		}
	}
}

// scrape reads the daemon's /metrics exposition into a map from the sample
// key (name plus labels, as printed) to its value.
func scrape(ctx context.Context, client *http.Client, d *daemon) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", d.url, resp.StatusCode)
	}
	out := map[string]float64{}
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
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: bad sample %q", d.url, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeFleet sums each sample over the fleet.
func scrapeFleet(ctx context.Context, client *http.Client, fleet []*daemon) (map[string]float64, error) {
	total := map[string]float64{}
	for _, d := range fleet {
		m, err := scrape(ctx, client, d)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// histQuantile estimates quantile q of a Prometheus histogram from the
// delta of its cumulative buckets (linear inside the bucket).
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	total := after[name+"_count"] - before[name+"_count"]
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	target := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(target-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return bs[len(bs)-1].le
}
