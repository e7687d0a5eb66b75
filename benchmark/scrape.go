package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"mzqos/internal/history"
	"mzqos/internal/journal"
)

const (
	lightEvery = 20 * time.Millisecond
	// heavyEvery must be a multiple of lightEvery: the reader runs the
	// heavy cycle right after every heavyEvery/lightEvery-th light one.
	heavyEvery = 200 * time.Millisecond
	queryURL   = "/query?series=mzqos_server_round_time_seconds&agg=p99&step=64"
)

// scrapeResult is what the reader goroutine measured.
type scrapeResult struct {
	lightMs, heavyMs []float64 // cycle latency from the time the cycle was due
	latenessMs       []float64 // how late each cycle started
	// tally counts library calls made, and those whose payload failed
	// validation.
	tally
}

// scraper is the open-loop reader of the scrape workload: one goroutine
// that makes the library calls behind mzserver's HTTP surface on a fixed
// schedule while the round loop runs. Being open-loop, a cycle delayed by a
// stall is timed from when it was due, so the stall is charged to every
// cycle it held up.
type scraper struct {
	inst *instance
	done chan struct{}
	wg   sync.WaitGroup
	res  scrapeResult

	metrics, query, dashboard http.Handler
	lastSeq                   uint64
}

func startScraper(inst *instance) *scraper {
	s := &scraper{
		inst:    inst,
		done:    make(chan struct{}),
		metrics: inst.reg.MetricsHandler(),
		query:   inst.hist.QueryHandler(),
		dashboard: inst.hist.DashboardHandler(history.DashboardConfig{
			Title: "mzqos", RoundLength: roundLength,
		}),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// stop ends the reader and waits for it.
func (s *scraper) stop() scrapeResult {
	close(s.done)
	s.wg.Wait()
	return s.res
}

func (s *scraper) loop() {
	defer s.wg.Done()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * lightEvery)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-s.done:
			timer.Stop()
			return
		case <-timer.C:
		}
		s.res.latenessMs = append(s.res.latenessMs, ms(time.Since(due)))
		s.light()
		s.res.lightMs = append(s.res.lightMs, ms(time.Since(due)))
		if k%int(heavyEvery/lightEvery) == 0 {
			s.heavy()
			s.res.heavyMs = append(s.res.heavyMs, ms(time.Since(due)))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *scraper) check(ok bool, format string, args ...any) {
	s.res.Attempted++
	if !ok {
		s.res.fail(format, args...)
	}
}

// serve runs one handler into a recorder, as the HTTP server would.
func serve(h http.Handler, url string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
	return rr
}

// light is what a Prometheus scrape plus a dashboard poll costs: /metrics,
// one /query, the /timeline tail, /report and /slo.
func (s *scraper) light() {
	srv := s.inst.servers[0]
	rr := serve(s.metrics, "/metrics")
	s.check(rr.Code == http.StatusOK && bytes.Contains(rr.Body.Bytes(), []byte("mzqos_server_rounds_total")),
		"/metrics: status %d, %d bytes", rr.Code, rr.Body.Len())
	rr = serve(s.query, queryURL)
	s.check(rr.Code == http.StatusOK && json.Valid(rr.Body.Bytes()), "/query: status %d", rr.Code)

	f := journal.MatchAll()
	f.SinceSeq = s.lastSeq
	evs := s.inst.jnl.Events(f)
	ordered := true
	for i, e := range evs {
		if e.Seq <= s.lastSeq || (i > 0 && e.Seq <= evs[i-1].Seq) {
			ordered = false
		}
	}
	if len(evs) > 0 {
		s.lastSeq = evs[len(evs)-1].Seq
	}
	s.check(ordered, "journal tail out of order after seq %d", f.SinceSeq)

	rep, err := srv.BoundTightness()
	s.check(err == nil && len(rep.Disks) == s.inst.spec.Disks, "BoundTightness: %v", err)
	s.check(srv.SLOStatus().Enabled, "SLOStatus: audit not enabled")
}

// heavy is what a browser on /dashboard plus a /debug/bundle capture costs.
func (s *scraper) heavy() {
	rr := serve(s.dashboard, "/dashboard")
	s.check(rr.Code == http.StatusOK && bytes.Contains(rr.Body.Bytes(), []byte("<svg")),
		"/dashboard: status %d, %d bytes", rr.Code, rr.Body.Len())
	dump := s.inst.hist.Dump(256)
	s.check(len(dump.Series) > 0 && len(dump.Series[0].Points) > 0, "history dump: %d series", len(dump.Series))
	lr := s.inst.ledger.Report()
	s.check(lr.ActiveStreams == len(lr.Active), "ledger report: %d active streams, %d records", lr.ActiveStreams, len(lr.Active))
	all := s.inst.jnl.Events(journal.MatchAll())
	s.check(len(all) > 0, "journal: no events retained")
}
