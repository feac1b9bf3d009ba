package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sysscale"
	"sysscale/internal/engine"
	"sysscale/internal/sweepd"
)

// service is a sweepd server on a loopback port, run in this process,
// with the HTTP client the benchmark's closed-loop clients share.
type service struct {
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
	trace  atomic.Pointer[tracer] // non-nil while a traced phase runs
}

// reqHeader carries a request's span id to the server-side span.
const reqHeader = "Perfbench-Request"

func startService(eng *engine.Engine, o *options) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h := s.handlerSpans(sweepd.New(sweepd.Config{Engine: eng}))
	if o.wrapHandler != nil {
		h = o.wrapHandler(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * o.clients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	return s, nil
}

// close stops the server and waits for it to exit.
func (s *service) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
}

// handlerSpans records a sweepd.handler span around each request of a
// traced phase.
func (s *service) handlerSpans(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.trace.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		if req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
			tr.child(req, "sweepd.handler", start, time.Now())
		}
	})
}

// serviceStats reads GET /v1/stats.
func (s *service) stats() (eng, srv counters, err error) {
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Engine map[string]any `json:"engine"`
		Server map[string]any `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if eng, err = countersOf(body.Engine); err != nil {
		return nil, nil, err
	}
	srv, err = countersOf(body.Server)
	return eng, srv, err
}

// Wire forms of the sweepd responses, as a client reads them. Fields
// the service adds later are ignored.
type (
	wireJob struct {
		Fingerprint string          `json:"fingerprint"`
		Result      sysscale.Result `json:"result"`
	}
	wireLine struct {
		Index  int              `json:"index"`
		Result *sysscale.Result `json:"result"`
		Error  *wireError       `json:"error"`
		Done   *wireDone        `json:"done"`
	}
	wireError struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	wireDone struct {
		Jobs     int  `json:"jobs"`
		Errors   int  `json:"errors"`
		Canceled bool `json:"canceled"`
	}
)

// clientState is one closed-loop client's reusable buffers.
type clientState struct {
	line []byte // NDJSON scanner buffer
	enc  []byte // result encoding buffer
}

// outcome is one sweep request's observations.
type outcome struct {
	latency    time.Duration
	firstLine  time.Duration // time to the first NDJSON line
	delivered  int           // correct results delivered
	simSeconds float64
	failed     int // jobs failed
}

// httpTimes are the client-side boundaries of one traced request.
type httpTimes struct{ getConn, wrote, firstByte time.Time }

// post sends body to path. With a tracer it tags the request with its
// span id and records the connection and write boundaries in ht.
func (s *service) post(path string, body []byte, tr *tracer, req int64, ht *httpTimes) (*http.Response, error) {
	ctx := context.Background()
	if tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn:              func(string) { ht.getConn = time.Now() },
			WroteRequest:         func(httptrace.WroteRequestInfo) { ht.wrote = time.Now() },
			GotFirstResponseByte: func() { ht.firstByte = time.Now() },
		})
	}
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	if tr != nil {
		r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	return s.client.Do(r)
}

// postSweep posts items as one /v1/sweeps request and reads the NDJSON
// stream, checking every result line against its reference. A sweep
// with an HTTP error, an in-band error, a missing line or no Done
// marker counts its missing jobs as failed; a stream cut before its
// Done marker fails all of them. req is the request's span id from
// tr.newID.
func (s *service) postSweep(items []*item, body []byte, cs *clientState, tr *tracer, req int64, g *gate) outcome {
	out := outcome{failed: len(items)}
	var ht httpTimes
	start := time.Now()
	resp, err := s.post("/v1/sweeps", body, tr, req, &ht)
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(cs.line, 16<<20)
	seen := make([]bool, len(items))
	var (
		done       *wireDone
		good       int
		simSecs    float64
		firstLine  time.Duration
		ln         wireLine
		decodeFail bool
	)
	for sc.Scan() {
		if firstLine == 0 {
			firstLine = time.Since(start)
		}
		ln = wireLine{}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			decodeFail = true
			break
		}
		switch {
		case ln.Done != nil:
			done = ln.Done
		case ln.Error != nil:
		case ln.Result != nil && ln.Index >= 0 && ln.Index < len(items) && !seen[ln.Index]:
			seen[ln.Index] = true
			it := items[ln.Index]
			if !sameResult(&cs.enc, *ln.Result, it.want) {
				g.fail("/v1/sweeps result for %s differs from the reference", it.fp)
			}
			good++
			simSecs += simSeconds(*ln.Result)
		default:
			g.fail("/v1/sweeps sent a malformed or duplicate line for index %d", ln.Index)
		}
	}
	end := time.Now()
	if tr != nil {
		tr.add(req, 0, req, "request.sweep", start, end)
		tr.child(req, "client.write", ht.getConn, ht.wrote)
		tr.child(req, "client.read", ht.firstByte, end)
	}
	if decodeFail || sc.Err() != nil || done == nil {
		return out
	}
	out.latency, out.firstLine = end.Sub(start), firstLine
	out.delivered, out.simSeconds, out.failed = good, simSecs, len(items)-good
	return out
}

func simSeconds(r sysscale.Result) float64 { return float64(r.Duration) / float64(sysscale.Second) }

// closedLoop runs clients, each sending its next request only after the
// previous one completes: step sends a client's next request, and
// reports false once there is nothing left to send. The loop is one
// throughput sample.
func closedLoop(clients int, step func(cs *clientState) (outcome, bool)) *phaseStats {
	per := make([]phaseStats, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := &clientState{line: make([]byte, 64<<10)}
			for {
				out, ok := step(cs)
				if !ok {
					return
				}
				per[c].record(out)
			}
		}()
	}
	wg.Wait()
	total := &phaseStats{}
	for i := range per {
		total.add(&per[i])
	}
	total.wall = time.Since(start)
	total.sample(total.results, total.simSeconds, total.wall)
	return total
}

// sample adds one throughput sample: results and simulated seconds
// delivered in d of host time.
func (p *phaseStats) sample(results int64, simSeconds float64, d time.Duration) {
	p.rates = append(p.rates, float64(results)/d.Seconds())
	p.simRates = append(p.simRates, simSeconds/d.Seconds())
}

// record adds one request's outcome.
func (p *phaseStats) record(o outcome) {
	p.results += int64(o.delivered)
	p.simSeconds += o.simSeconds
	p.attempted += int64(o.delivered + o.failed)
	p.failed += int64(o.failed)
	if o.latency == 0 {
		return
	}
	p.sweepMS = append(p.sweepMS, ms(o.latency))
	p.firstLineMS = append(p.firstLineMS, ms(o.firstLine))
}
