package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wikisearch"
	"wikisearch/internal/server"
)

// setupReps is how many times a run prepares the engine and starts the
// server before the window; the last of them serves the run.
// lateSetupReps more follow the window on a regenerated graph, and setup_s
// is the median of all of them. One set-up takes about a second, nearly all
// of it NewEngine on one core, and moved by up to half with the host's CPU
// steal, which comes in bursts of seconds to minutes: set-ups half a
// minute apart see more of the host's states than the same number in a
// row. With as many late as early set-ups, the median lies between the
// two groups when one of them met a burst.
const (
	setupReps     = 5
	lateSetupReps = 5
)

// serverConfig is the configuration cmd/wikiserve builds at its default
// flags, with the access log kept but written to a discard sink.
func serverConfig() server.Config {
	return server.Config{
		Timeout:      5 * time.Second,
		MaxInFlight:  64,
		CacheSize:    256,
		BatchWindow:  200 * time.Microsecond,
		BatchColumns: 8,
		SlowQuery:    500 * time.Millisecond,
		Logger:       log.New(io.Discard, "", log.LstdFlags),
	}
}

// setupTimes splits one preparation into its parts.
type setupTimes struct {
	build, save, load, start, first, total time.Duration
}

// service is one running server over a loaded engine.
type service struct {
	eng     *wikisearch.Engine
	srv     *server.Server
	http    *http.Server
	base    string // http://127.0.0.1:port
	dump    string
	served  chan error
	handler *tracedHandler
}

// prepare builds the engine from the generated graph and brings up a
// server on it, timing every step up to the first successful reply:
// NewEngine (index, weights, distance sampling), SaveFormat v3, LoadEngine,
// server start (plus EnableMutation when the workload writes) and the first
// search.
func prepare(f *fixture, dir string, rep int, mutable bool, probe string, client *http.Client) (*service, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	built, err := wikisearch.NewEngine(f.kb.Graph, wikisearch.EngineOptions{})
	if err != nil {
		return nil, t, fmt.Errorf("build engine: %w", err)
	}
	built.SetName(f.name)
	t1 := time.Now()
	dump := filepath.Join(dir, fmt.Sprintf("kb-%d.wskb", rep))
	if err := built.SaveFormat(dump, wikisearch.FormatV3); err != nil {
		return nil, t, fmt.Errorf("save dump: %w", err)
	}
	t2 := time.Now()
	eng, err := wikisearch.LoadEngine(dump, wikisearch.EngineOptions{})
	if err != nil {
		return nil, t, fmt.Errorf("load dump: %w", err)
	}
	t3 := time.Now()
	s := &service{eng: eng, dump: dump, served: make(chan error, 1)}
	s.srv = server.NewWithConfig(eng, serverConfig())
	if mutable {
		if err := s.srv.EnableMutation(wikisearch.MutatorOptions{CompactAfterOps: 4096}); err != nil {
			s.close()
			return nil, t, fmt.Errorf("enable mutation: %w", err)
		}
	}
	s.handler = &tracedHandler{next: s.srv, eng: eng}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, t, fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.served <- s.http.Serve(ln) }()
	t4 := time.Now()
	if _, err := get(client, s.base+searchPath(probe)); err != nil {
		s.close()
		return nil, t, fmt.Errorf("first search: %w", err)
	}
	t5 := time.Now()
	t = setupTimes{build: t1.Sub(t0), save: t2.Sub(t1), load: t3.Sub(t2), start: t4.Sub(t3), first: t5.Sub(t4), total: t5.Sub(t0)}
	return s, t, nil
}

// setUp prepares the engine and starts the server n times in turn,
// numbering the dumps from first, and records each preparation and the
// host's CPU steal meanwhile in info. Each service but the last is closed
// before the next preparation; the last is returned running.
func setUp(f *fixture, dir string, first, n int, mutable bool, probe string, client *http.Client, info *runInfo) (*service, []setupTimes, error) {
	var (
		svc *service
		ts  []setupTimes
	)
	steal0, ticks0, _ := cpuTicks()
	for rep := first; rep < first+n; rep++ {
		if svc != nil {
			svc.close()
		}
		runtime.GC()
		s, t, err := prepare(f, dir, rep, mutable, probe, client)
		if err != nil {
			return nil, nil, err
		}
		svc, ts = s, append(ts, t)
		info.SetupS = append(info.SetupS, t.total.Seconds())
		info.SetupBuildS = append(info.SetupBuildS, t.build.Seconds())
	}
	steal1, ticks1, _ := cpuTicks()
	info.setupStolen += steal1 - steal0
	info.setupTicks += ticks1 - ticks0
	return svc, ts, nil
}

// close stops the listener, waits for in-flight handlers, stops the
// mutator's compactor and unmaps the dump.
func (s *service) close() {
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.http.Shutdown(ctx) // a handler still running after 10s is reported by the checks
		cancel()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		s.http = nil
	}
	_ = s.srv.Close() // stops the compactor; its error is that of an already-closed mutator
	_ = s.eng.Close()
	_ = os.Remove(s.dump)
}

// get issues one GET and requires a 200.
func get(client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}

// tracedHandler wraps Server.ServeHTTP. With tracing off it only forwards;
// with tracing on it times the handler and the engine trace of every
// request the client marked with a sequence number.
type tracedHandler struct {
	next http.Handler
	eng  *wikisearch.Engine
	on   atomic.Bool

	mu   sync.Mutex
	recs map[int64]handlerRec
}

// handlerRec is the server-side view of one traced request.
type handlerRec struct {
	handler time.Duration // Server.ServeHTTP
	engine  time.Duration // engine trace: admission to completion (0 on a cache hit)
	wait    time.Duration // batch coalescing wait inside engine
	found   bool          // an engine trace matched the request
}

// seqHeader carries the client's sequence number of a traced request.
const seqHeader = "X-Perfbench-Seq"

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	raw := r.Header.Get(seqHeader)
	if raw == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	rec := handlerRec{handler: time.Since(start)}
	var seq int64
	fmt.Sscan(raw, &seq)
	var id uint64
	fmt.Sscan(w.Header().Get("X-Request-Id"), &id)
	if qt := h.eng.Traces().FindRequest(id); qt != nil {
		rec.engine, rec.wait, rec.found = qt.Duration, qt.BatchWait, true
	}
	h.mu.Lock()
	h.recs[seq] = rec
	h.mu.Unlock()
}

// start enables tracing with an empty record set.
func (h *tracedHandler) start() {
	h.mu.Lock()
	h.recs = map[int64]handlerRec{}
	h.mu.Unlock()
	h.on.Store(true)
}

// records stops tracing and returns what was recorded. Call it after the
// clients have finished.
func (h *tracedHandler) records() map[int64]handlerRec {
	h.on.Store(false)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recs
}
