package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"

	"sysscale"
	"sysscale/internal/sweepd"
)

// gate collects correctness failures. Any failure makes the run
// incorrect; the first few are reported.
type gate struct {
	mu    sync.Mutex
	count int
	msgs  []string
}

const maxGateMsgs = 5

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.count++
	if len(g.msgs) < maxGateMsgs {
		g.msgs = append(g.msgs, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count == 0
}

// checkReferences checks the reference results every delivered result
// was compared against: a seeded sample of them must be byte-identical
// to plain sysscale.Run on a fresh platform (no engine, no caches) and
// to POST /v1/jobs on a fresh server, whose fingerprint must equal
// spec.Fingerprint; at the default seed their digest must equal the
// stored one.
func checkReferences(name string, items []*item, o *options, g *gate) error {
	for i, it := range items {
		if it.want == nil {
			g.fail("%s: job %d never produced a reference result", name, i)
			return nil
		}
	}
	rng := rand.New(rand.NewPCG(o.seed, seedTag(name)))
	sample := rng.Perm(len(items))[:min(o.samples, len(items))]
	var picked []*item
	for _, i := range sample {
		picked = append(picked, items[i])
	}
	if err := wireForm(picked); err != nil {
		return err
	}
	srv := sweepd.New(sweepd.Config{Engine: sysscale.NewEngine(sysscale.WithParallelism(o.parallelism))})
	var buf []byte
	for _, i := range sample {
		res, err := sysscale.Run(items[i].cfg)
		if err != nil {
			g.fail("%s: sysscale.Run of job %d: %v", name, i, err)
			continue
		}
		if !sameResult(&buf, res, items[i].want) {
			g.fail("%s: job %d: engine result differs from sysscale.Run", name, i)
		}
		checkJob(srv, items[i], &buf, g)
	}
	if o.seed != defaultSeed {
		return nil
	}
	want, ok := storedDigests[name]
	if got := digest(items); !ok || got != want {
		g.fail("%s: result digest at seed %d is %s, stored %q", name, defaultSeed, got, want)
	}
	return nil
}

// checkJob posts it to POST /v1/jobs on h through a recorder (no
// socket) and checks the response: status 200, the fingerprint equal
// to spec.Fingerprint, and the result equal to the reference.
func checkJob(h http.Handler, it *item, buf *[]byte, g *gate) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(it.body)))
	if rec.Code != http.StatusOK {
		g.fail("POST /v1/jobs for %s: status %d", it.fp, rec.Code)
		return
	}
	var jr wireJob
	if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
		g.fail("POST /v1/jobs for %s: %v", it.fp, err)
		return
	}
	if jr.Fingerprint != it.fp {
		g.fail("/v1/jobs fingerprint %s, spec.Fingerprint %s", jr.Fingerprint, it.fp)
	}
	if !sameResult(buf, jr.Result, it.want) {
		g.fail("/v1/jobs result for %s differs from the reference", it.fp)
	}
}

// digest is sha256 over the reference results' encodings in input
// order.
func digest(items []*item) string {
	h := sha256.New()
	for _, it := range items {
		h.Write(it.want)
	}
	return hex.EncodeToString(h.Sum(nil))
}
