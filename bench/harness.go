package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"yieldcache/internal/server"
	"yieldcache/internal/store"
)

// harness is one yieldd instance served in process: the server with
// yieldd's default configuration, an httptest listener on loopback and
// a keep-alive client. With a data directory it runs over a file store,
// as yieldd -store file does.
type harness struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	file   *store.File // nil without a store
	dir    string      // the file store's directory
}

// newHarness starts a server. With durable set it opens a file store in
// a fresh temporary directory; a non-nil timed wraps that store so the
// trace can attribute persist time to requests.
func newHarness(durable bool, timed *timedStore) (*harness, error) {
	if !durable {
		return startHarness(server.New(server.Config{}), nil, ""), nil
	}
	dir, err := os.MkdirTemp("", "yieldbench-")
	if err != nil {
		return nil, fmt.Errorf("creating the store directory: %w", err)
	}
	f, err := store.OpenFile(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening the file store: %w", err)
	}
	var st store.Store = f
	if timed != nil {
		timed.Store = f
		st = timed
	}
	return startHarness(server.New(server.Config{Store: st}), f, dir), nil
}

// startHarness serves srv on a loopback listener.
func startHarness(srv *server.Server, file *store.File, dir string) *harness {
	return &harness{
		srv:  srv,
		ts:   httptest.NewServer(srv.Handler()),
		file: file,
		dir:  dir,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		},
	}
}

// stop drains the server and shuts every part down, leaving the store
// directory in place.
func (h *harness) stop() error {
	h.client.CloseIdleConnections()
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := h.srv.Drain(ctx)
	h.srv.Close()
	if h.file != nil {
		if cerr := h.file.Close(); err == nil {
			err = cerr
		}
		h.file = nil
	}
	return err
}

// close stops the harness and removes its store directory.
func (h *harness) close() error {
	err := h.stop()
	if h.dir != "" {
		if rerr := os.RemoveAll(h.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status     int
	body       []byte
	jobID      string
	replayed   bool // Idempotency-Replayed: true
	start, end time.Time
	err        error
}

func (r reply) ms() float64 { return float64(r.end.Sub(r.start)) / 1e6 }

// ok reports a 2xx response that arrived whole.
func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

// failure describes why a reply is not ok.
func (r reply) failure() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
}

// do sends one request and times it from the send to the last body byte.
func (h *harness) do(method, path string, body []byte, idemKey string) reply {
	req, err := http.NewRequest(method, h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	r := reply{start: time.Now()}
	resp, err := h.client.Do(req)
	if err != nil {
		r.end, r.err = time.Now(), err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	r.end = time.Now()
	resp.Body.Close()
	r.status = resp.StatusCode
	r.jobID = resp.Header.Get("X-Job-Id")
	r.replayed = resp.Header.Get("Idempotency-Replayed") == "true"
	return r
}

// post sends a JSON request body.
func (h *harness) post(path string, v any, idemKey string) reply {
	body, err := json.Marshal(v)
	if err != nil {
		return reply{err: err}
	}
	return h.do(http.MethodPost, path, body, idemKey)
}

// queueWaitMS reads a job's queue wait from GET /v1/jobs/{id}.
func (h *harness) queueWaitMS(jobID string) (float64, error) {
	r := h.do(http.MethodGet, "/v1/jobs/"+jobID, nil, "")
	if !r.ok() {
		return 0, fmt.Errorf("GET /v1/jobs/%s: %s", jobID, r.failure())
	}
	var d server.JobDetail
	if err := json.Unmarshal(r.body, &d); err != nil {
		return 0, fmt.Errorf("decoding job %s: %w", jobID, err)
	}
	return d.QueueWaitMS, nil
}

// cpuTime is the CPU time the process has used, user plus system. The
// kernel does not charge it with time the hypervisor stole from the
// virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB; where
// /proc is unavailable it falls back to the memory the Go runtime holds.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
