package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/server"
)

// httpTailQ is serve-mixed's tail percentile. A 4 s slice holds about
// 26k requests, so p99.9 has some 26 beyond it. It lands among the cache
// misses, whose cost is Algorithm 2 on the CPU; p99 lands among the
// churn's fsync stalls, and on a shared disk those spread 0.47 across
// seeds.
const httpTailQ = 0.999

// tally is one closed-loop client's account of its requests.
type tally struct {
	bins      *bins // latencies by the slice of the window they ended in
	start     time.Time
	byClass   map[string][]float64 // traced windows: latencies (ms) by request class
	attempted int64
	failed    int64
	rejected  int64 // 429 and 503: refused by admission or role
	hits      int64 // generate replies served from the fusion cache
	generates int64
	checkErrs []error
	opReq     string // id of the first traced request of the current operation
}

func newTally(b *bins) *tally { return &tally{bins: b, byClass: make(map[string][]float64)} }

// fail records a correctness-check failure; the run will not pass.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.checkErrs) < 8 {
		t.checkErrs = append(t.checkErrs, err)
	}
}

// send issues one request, times it client-side, and counts it: a
// transport error or a status other than want is a failed operation.
// It reports whether the request succeeded.
func (t *tally) send(cl *client, rec *recorder, reqSeq *atomic.Int64, class, method, url string, body []byte, want int) (reply, bool) {
	var id string
	if rec != nil {
		id = "pb-" + strconv.FormatInt(reqSeq.Add(1), 36)
		if t.opReq == "" {
			t.opReq = id
		}
	}
	t.attempted++
	start := time.Now()
	r, err := cl.do(method, url, body, id)
	d := time.Since(start)
	t.bins.add(start.Add(d).Sub(t.start), d)
	if rec != nil {
		s := start.Sub(rec.epoch)
		rec.record(0, 0, "client."+class, id, s, s+d)
		t.byClass[class] = append(t.byClass[class], ms(d))
	}
	if err != nil || r.status != want {
		t.failed++
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			t.rejected++
		}
		return r, false
	}
	return r, true
}

// merge folds client tallies into one.
func merge(ts []*tally) *tally {
	all := make([]*bins, len(ts))
	for c, t := range ts {
		all[c] = t.bins
	}
	out := newTally(mergeBins(all))
	for _, t := range ts {
		for k, v := range t.byClass {
			out.byClass[k] = append(out.byClass[k], v...)
		}
		out.attempted += t.attempted
		out.failed += t.failed
		out.rejected += t.rejected
		out.hits += t.hits
		out.generates += t.generates
		out.checkErrs = append(out.checkErrs, t.checkErrs...)
	}
	return out
}

// closedLoop runs clients callers for dur. Each caller waits for every
// reply before it sends again; operations are drawn in order from a
// shared counter, so the run executes a prefix of the seed's stream.
func closedLoop(clients int, dur time.Duration, transport *http.Transport, next *atomic.Int64,
	op func(c int, cl *client, t *tally, i int)) ([]*tally, time.Duration) {
	tallies := make([]*tally, clients)
	for c := range tallies {
		tallies[c] = newTally(newBins(dur, c))
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range tallies {
		tallies[c].start = start
		wg.Add(1)
		go func(c int, t *tally) {
			defer wg.Done()
			cl := &client{hc: &http.Client{Transport: transport, Timeout: time.Minute}}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t.opReq = ""
				op(c, cl, t, i)
			}
		}(c, tallies[c])
	}
	wg.Wait()
	return tallies, time.Since(start)
}

// sampler polls the stack's observability endpoints while a traced
// window runs: /healthz (admission queue), /metrics (counter deltas),
// and /debug/log (server-side request durations, joined to client spans
// by request id).
type sampler struct {
	st  *stack
	rec *recorder
	cl  *client

	queued   []float64
	serverUS map[string]int64 // request id → server durationUs
	first    *obsv.Exposition
	last     *obsv.Exposition
	logTotal uint64
	errs     []error

	halt chan struct{}
	done chan struct{}
}

// samplePeriod bounds how many requests land between two /debug/log
// polls; the access-log ring must hold that many (traceRing).
const (
	samplePeriod = 200 * time.Millisecond
	traceRing    = 16384
)

// startSampler starts polling; stop ends it.
func startSampler(st *stack, rec *recorder) *sampler {
	s := &sampler{st: st, rec: rec, serverUS: make(map[string]int64),
		cl:   &client{hc: &http.Client{Transport: newTransport(1), Timeout: time.Minute}},
		halt: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

// stop takes a final sample and returns once the poller has exited.
func (s *sampler) stop() {
	close(s.halt)
	<-s.done
	s.cl.hc.CloseIdleConnections()
}

func (s *sampler) run() {
	defer close(s.done)
	s.scrape()
	s.pollLog()
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	lastScrape := time.Now()
	for {
		select {
		case <-s.halt:
			s.pollLog()
			s.scrape()
			return
		case <-tick.C:
		}
		s.pollHealth()
		s.pollLog()
		if time.Since(lastScrape) >= time.Second {
			s.scrape()
			lastScrape = time.Now()
		}
	}
}

func (s *sampler) note(err error) {
	if err != nil && len(s.errs) < 4 {
		s.errs = append(s.errs, err)
	}
}

func (s *sampler) get(name, url string, dst any) error {
	var err error
	s.rec.timed(0, "sampler."+name, "", func() { err = s.cl.getJSON(url, dst) })
	return err
}

func (s *sampler) pollHealth() {
	var h server.HealthResponse
	if err := s.get("healthz", s.st.leader.url+"/healthz", &h); err != nil {
		s.note(err)
		return
	}
	q := 0
	for _, t := range h.Tenants {
		q += t.Queued
	}
	s.queued = append(s.queued, float64(q))
}

// pollLog fetches the access-log records written since the last poll.
// It first reads the running total, then asks for that many records plus
// a margin for requests that finished in between; ids deduplicate.
func (s *sampler) pollLog() {
	var head obsv.DebugLogResponse
	if err := s.get("debug_log", s.st.leader.url+"/debug/log?n=1", &head); err != nil {
		s.note(err)
		return
	}
	n := min(int(head.Total-s.logTotal)+256, traceRing)
	var tail obsv.DebugLogResponse
	if err := s.get("debug_log", fmt.Sprintf("%s/debug/log?n=%d", s.st.leader.url, n), &tail); err != nil {
		s.note(err)
		return
	}
	for _, r := range tail.Records {
		s.serverUS[r.ID] = r.DurationUS
	}
	s.logTotal = tail.Total
}

func (s *sampler) scrape() {
	var exp *obsv.Exposition
	var err error
	s.rec.timed(0, "sampler.metrics", "", func() {
		var r reply
		r, err = s.cl.do(http.MethodGet, s.st.leader.url+"/metrics", nil, "")
		if err == nil {
			exp, err = obsv.ParseText(bytes.NewReader(r.body))
		}
	})
	if err != nil {
		s.note(err)
		return
	}
	if s.first == nil {
		s.first = exp
	}
	s.last = exp
}

// delta is the growth of a counter family (summed over its labels)
// between the first and last scrape.
func (s *sampler) delta(name string) float64 {
	if s.first == nil || s.last == nil {
		return 0
	}
	return sumFamily(s.last, name) - sumFamily(s.first, name)
}

func sumFamily(exp *obsv.Exposition, name string) float64 {
	var v float64
	for _, f := range exp.Families {
		for _, smp := range f.Samples {
			if smp.Name == name {
				v += smp.Value
			}
		}
	}
	return v
}

// histQuantile is the q-quantile (bucket upper bound) of the
// observations a histogram family gained between the two scrapes.
func (s *sampler) histQuantile(name string, q float64) float64 {
	if s.first == nil || s.last == nil {
		return 0
	}
	buckets := func(exp *obsv.Exposition) map[float64]float64 {
		out := make(map[float64]float64)
		if f := exp.Family(name); f != nil {
			for _, smp := range f.Samples {
				if smp.Name != name+"_bucket" {
					continue
				}
				le, err := strconv.ParseFloat(smp.Label("le"), 64)
				if err != nil {
					le = math.Inf(1)
				}
				out[le] += smp.Value
			}
		}
		return out
	}
	a, b := buckets(s.first), buckets(s.last)
	les := make([]float64, 0, len(b))
	for le := range b {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := b[les[len(les)-1]] - a[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	for _, le := range les {
		if b[le]-a[le] >= q*total {
			return le
		}
	}
	return les[len(les)-1]
}

// handlerFrac is the share of client-observed request time spent inside
// the server's handler chain, over the requests the access log joined.
func (s *sampler) handlerFrac(spans []span) (frac float64, joined int) {
	var client, srv float64
	for _, sp := range spans {
		if sp.Req == "" || len(sp.Name) < 7 || sp.Name[:7] != "client." {
			continue
		}
		d, ok := s.serverUS[sp.Req]
		if !ok {
			continue
		}
		joined++
		client += us(sp.dur())
		srv += float64(d)
	}
	return ratio(srv, client), joined
}
