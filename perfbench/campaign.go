package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The campaign workload drives the repository's expsd as a user would:
// one client, one connection, a closed loop. It starts a daemon with two
// workers and a fresh cache and submits one cold "headline" job (every
// simulation executes and is written to the cache), coldJobs times. The
// last daemon then gets identical warm jobs until the measurement time
// is spent (every simulation is a cache hit, so the job store, cache
// reads, rendering, SSE and HTTP do the work). It only uses POST /v1/jobs, GET /v1/jobs, GET
// /v1/jobs/{id}[/events|/results] and GET /v1/metrics.

const (
	campaignWorkers = 2
	// minWarmJobs gives the warm-job p90 ten samples beyond it.
	minWarmJobs = 100
	// The paper's headline speed-ups over the 1-thread MMX superscalar.
	paperMMXSpeedup = 2.1
	paperMOMSpeedup = 3.3
	// warmSpan is how long a group of warm jobs lasts, so that the
	// stolen-time counters advance enough to measure its share.
	warmSpan = 500 * time.Millisecond
	// coldJobs is how many cold jobs a run times; it reports the median.
	coldJobs = 3
	// coldAllowance bounds, per cold job, everything but the warm loop:
	// the cold jobs and the requests around them.
	coldAllowance = 60 * time.Second
)

// daemon is one running expsd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once cmd.Wait returned
}

// startDaemon launches expsd on a free local port with a fresh cache
// directory and waits until GET /v1/jobs answers.
func startDaemon(bin, cacheDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr, "-j", strconv.Itoa(campaignWorkers), "-cache-dir", cacheDir)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start expsd: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries nothing
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := probe.Get(d.base + "/v1/jobs")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("expsd on %s exited before answering", addr)
		case <-time.After(200 * time.Microsecond):
		}
	}
	d.stop()
	return nil, fmt.Errorf("expsd on %s did not answer within 30s", addr)
}

// stop sends SIGTERM, waits for the daemon to exit and kills it if it
// has not within ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited daemon needs nothing
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// jobView is the part of the job status view the benchmark checks.
type jobView struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Simulations int64  `json:"simulations"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	CacheWrites int64  `json:"cache_writes"`
}

// jobRun is one job as the client saw it.
type jobRun struct {
	submit, settle, results time.Duration
	csv                     []byte
	view                    jobView
}

func (j jobRun) total() time.Duration { return j.submit + j.settle + j.results }

type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	// One connection, reused by every request of the closed loop.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// waitDone reads the job's event stream until its done event.
func (c *client) waitDone(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		if sc.Text() == "event: done" {
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if !done {
		return errors.New("event stream ended without a done event")
	}
	return nil
}

// runJob submits one job and times its three client-visible steps:
// submission, settling (accepted until the done event) and fetching the
// CSV results. The status view is read after the timed span.
func (c *client) runJob(ctx context.Context, body []byte) (jobRun, error) {
	var j jobRun
	t0 := time.Now()
	b, code, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil || code != http.StatusAccepted {
		return j, fmt.Errorf("submit: status %d: %v %s", code, err, b)
	}
	var acc jobView
	if err := json.Unmarshal(b, &acc); err != nil || acc.ID == "" {
		return j, fmt.Errorf("submit: bad body %q: %v", b, err)
	}
	t1 := time.Now()
	if err := c.waitDone(ctx, acc.ID); err != nil {
		return j, err
	}
	t2 := time.Now()
	j.csv, code, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+acc.ID+"/results?format=csv", nil)
	if err != nil || code != http.StatusOK {
		return j, fmt.Errorf("results: status %d: %v", code, err)
	}
	t3 := time.Now()
	j.submit, j.settle, j.results = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)

	b, code, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+acc.ID, nil)
	if err != nil || code != http.StatusOK {
		return j, fmt.Errorf("status: status %d: %v", code, err)
	}
	if err := json.Unmarshal(b, &j.view); err != nil {
		return j, fmt.Errorf("status: %w", err)
	}
	return j, nil
}

// promValue returns the value of an unlabelled series in a Prometheus
// text exposition.
func promValue(text []byte, series string) (float64, error) {
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("no series %s in /v1/metrics", series)
}

// headline holds what the benchmark derives from a headline CSV.
type headline struct {
	rows               int
	insts              float64 // committed simulated instructions, from ipc × cycles
	gapMMX, gapMOM     float64 // |ours/paper − 1| in percent
	speedMMX, speedMOM float64
}

// parseHeadline reads the per-simulation CSV of a headline job and
// applies Suite.Headline's formula: the best MMX ICOUNT IPC and the
// best MOM OCOUNT EIPC, over the 1-thread MMX round-robin IPC on the
// conventional hierarchy.
func parseHeadline(data []byte) (headline, error) {
	var h headline
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return h, err
	}
	if len(recs) < 2 {
		return h, errors.New("no simulation rows")
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	for _, name := range []string{"isa", "threads", "policy", "memory", "cycles", "ipc", "eipc"} {
		if _, ok := col[name]; !ok {
			return h, fmt.Errorf("no %q column", name)
		}
	}
	var base, bestMMX, bestMOM float64
	for _, r := range recs[1:] {
		num := func(name string) float64 {
			v, perr := strconv.ParseFloat(r[col[name]], 64)
			if perr != nil && err == nil {
				err = fmt.Errorf("column %s: %w", name, perr)
			}
			return v
		}
		ipc, eipc, cycles, threads := num("ipc"), num("eipc"), num("cycles"), num("threads")
		h.insts += math.Round(ipc * cycles)
		h.rows++
		isa, pol, memory := r[col["isa"]], r[col["policy"]], r[col["memory"]]
		switch {
		case isa == "mmx" && threads == 1 && pol == "RR" && memory == "conventional":
			base = ipc
		case isa == "mmx" && pol == "IC":
			bestMMX = math.Max(bestMMX, ipc)
		case isa == "mom" && pol == "OC":
			bestMOM = math.Max(bestMOM, eipc)
		}
	}
	if err != nil {
		return h, err
	}
	if base == 0 || bestMMX == 0 || bestMOM == 0 {
		return h, errors.New("headline rows missing")
	}
	h.speedMMX, h.speedMOM = bestMMX/base, bestMOM/base
	h.gapMMX = 100 * math.Abs(h.speedMMX/paperMMXSpeedup-1)
	h.gapMOM = 100 * math.Abs(h.speedMOM/paperMOMSpeedup-1)
	return h, nil
}

// runCampaign measures the campaign workload; see the comment at the
// top of this file.
func runCampaign(o options, t *tally) (outcome, error) {
	if o.expsd == "" {
		return outcome{}, errors.New("-expsd is required")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(o.workdir, "campaign-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)

	// Set-up is timed on fresh daemons, each with a fresh cache, that
	// are stopped again: setupsPerRound before the first cold job and
	// after every group of warm jobs, while the measured daemon idles.
	var setup setups
	starts := 0
	timeSetups := func() error {
		for range setupsPerRound {
			var p *daemon
			cache := filepath.Join(dir, fmt.Sprintf("setup-%d", starts))
			starts++
			err := setup.time(func() (err error) {
				p, err = startDaemon(o.expsd, cache)
				return err
			})
			if p != nil {
				p.stop()
			}
			if err != nil {
				return err
			}
			if err := os.RemoveAll(cache); err != nil {
				return err
			}
		}
		return nil
	}
	if err := timeSetups(); err != nil {
		return outcome{}, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+coldJobs*coldAllowance)
	defer cancel()
	body := fmt.Appendf(nil, `{"experiments":["headline"],"scale":%g,"seed":%d}`, o.scale, o.seed)

	// Each cold job runs on a fresh daemon with a fresh cache; the last
	// daemon then serves the warm jobs. Job times are corrected for
	// stolen CPU time (see host.go); unlike the sim workloads' times,
	// not for the host's speed. A cold job runs two sims at once, one on
	// each CPU, and the single-threaded reference work did not follow
	// it. A cold job's stolen share is measured over runJob, which reads
	// the status view after the timed steps.
	var (
		d                            *daemon
		c                            *client
		cold                         jobRun // the last cold job
		first                        []byte // the first cold job's CSV
		h                            headline
		colds, rawColds, coldStolens []float64
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := range coldJobs {
		if d != nil {
			d.stop()
		}
		if d, err = startDaemon(o.expsd, filepath.Join(dir, fmt.Sprintf("cache-%d", i))); err != nil {
			return outcome{}, err
		}
		c = newClient(d.base)
		var jerr error
		_, st, err := timeSpan(func() { cold, jerr = c.runJob(ctx, body) })
		if err != nil {
			return outcome{}, err
		}
		if jerr != nil {
			return outcome{}, fmt.Errorf("cold job: %w", jerr)
		}
		if first == nil {
			first = cold.csv
		}
		if h, err = parseHeadline(cold.csv); err != nil {
			return outcome{}, fmt.Errorf("cold job CSV: %w", err)
		}
		rows := int64(h.rows)
		v := cold.view
		t.check(v.Status == "ok" && v.Simulations == rows && v.CacheMisses == rows && v.CacheWrites == rows && v.CacheHits == 0 && bytes.Equal(cold.csv, first),
			"cold job %s: status %s, %d simulations, %d misses, %d writes, %d hits, CSV as the first cold job's %v (want ok, %d/%d/%d/0, true)",
			v.ID, v.Status, v.Simulations, v.CacheMisses, v.CacheWrites, v.CacheHits, bytes.Equal(cold.csv, first), rows, rows, rows)
		raw := cold.total().Seconds()
		colds, rawColds, coldStolens = append(colds, raw*(1-st)), append(rawColds, raw), append(coldStolens, st)
	}
	n := int64(h.rows)
	v := cold.view

	var (
		warm, rawWarm, stolen    []float64
		submits, settles, fetchs []float64
		sims, hits, misses, wrts = v.Simulations, v.CacheHits, v.CacheMisses, v.CacheWrites
	)
	// Warm jobs take milliseconds and the stolen-time counters tick every
	// 10 ms, so jobs are corrected in groups that last warmSpan.
	start := time.Now()
	for len(warm) < minWarmJobs || time.Since(start).Seconds() < o.seconds {
		var group []jobRun
		sp, err := startSpan()
		if err != nil {
			return outcome{}, err
		}
		for len(group) == 0 || time.Since(sp.t0) < warmSpan {
			j, err := c.runJob(ctx, body)
			if err != nil {
				return outcome{}, fmt.Errorf("warm job: %w", err)
			}
			group = append(group, j)
		}
		_, ticks, err := sp.end()
		if err != nil {
			return outcome{}, err
		}
		st := ticks.stolen()
		for _, j := range group {
			w := j.view
			t.check(w.Status == "ok" && w.Simulations == 0 && w.CacheHits == n && w.CacheMisses == 0 && bytes.Equal(j.csv, cold.csv),
				"warm job %s: status %s, %d simulations, %d hits, %d misses, CSV identical %v (want ok, 0, %d, 0, true)",
				w.ID, w.Status, w.Simulations, w.CacheHits, w.CacheMisses, bytes.Equal(j.csv, cold.csv), n)
			warm = append(warm, ms(j.total())*(1-st))
			rawWarm = append(rawWarm, ms(j.total()))
			submits = append(submits, ms(j.submit))
			settles = append(settles, ms(j.settle))
			fetchs = append(fetchs, ms(j.results))
			sims, hits, misses, wrts = sims+w.Simulations, hits+w.CacheHits, misses+w.CacheMisses, wrts+w.CacheWrites
		}
		stolen = append(stolen, st)
		if err := timeSetups(); err != nil {
			return outcome{}, err
		}
	}

	text, code, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil || code != http.StatusOK {
		return outcome{}, fmt.Errorf("metrics: status %d: %v", code, err)
	}
	executed, err := promValue(text, "mediasmt_sims_executed_total")
	if err != nil {
		return outcome{}, err
	}
	t.check(int64(executed) == sims, "mediasmt_sims_executed_total = %v, jobs report %d simulations", executed, sims)
	simRunSum, err := promValue(text, "mediasmt_sim_run_seconds_sum")
	if err != nil {
		return outcome{}, err
	}
	rss, err := vmHWM(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return outcome{}, err
	}

	sum := sha256.Sum256(cold.csv)
	coldS := median(colds)
	return outcome{
		metrics: map[string]float64{
			"siminsts_per_s":          h.insts / coldS,
			"job_p50_ms":              median(warm),
			"setup_s":                 setup.median(),
			"raw.setup_s":             median(setup.raw),
			"setups":                  float64(len(setup.raw)),
			"setup_stolen_share":      setup.ticks.stolen(),
			"max_rss_mb":              rss,
			"campaign_cold_s":         coldS,
			"raw.campaign_cold_s":     median(rawColds),
			"cold_stolen_share":       median(coldStolens),
			"warm_stolen_share":       median(stolen),
			"raw.job_p50_ms":          median(rawWarm),
			"warm_jobs":               float64(len(warm)),
			"serve.job_p90_ms":        quantile(warm, 0.9),
			"serve.submit_ms":         median(submits),
			"serve.settle_ms":         median(settles),
			"serve.cold_settle_ms":    ms(cold.settle),
			"serve.results_ms":        median(fetchs),
			"serve.results_bytes":     float64(len(cold.csv)),
			"exp.simulations":         float64(sims),
			"cache.hits":              float64(hits),
			"cache.misses":            float64(misses),
			"cache.writes":            float64(wrts),
			"dist.sim_run_s_sum":      simRunSum,
			"dist.worker_utilization": simRunSum / (campaignWorkers * cold.settle.Seconds()),
			"paper_gap_mmx_pct":       h.gapMMX,
			"paper_gap_mom_pct":       h.gapMOM,
		},
		digest: fmt.Sprintf("sha256:%s (%d sims, %d committed insts; headline speed-up MMX %.4fx, MOM %.4fx; paper_gap_mmx_pct %.4f, paper_gap_mom_pct %.4f)",
			hex.EncodeToString(sum[:])[:16], h.rows, int64(h.insts), h.speedMMX, h.speedMOM, h.gapMMX, h.gapMOM),
	}, nil
}
