package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"metis"
)

// The serve-steady workload drives a metisd built from the same
// checkout over HTTP from one benchmark process with two connections: one
// carries the batch POSTs, the other the single POSTs plus the decision
// polls a waiting client makes.
const (
	serveEpoch    = 100 * time.Millisecond
	cycleDur      = serveEpoch * metis.DefaultSlots // one billing cycle of ticks
	serveSetupRep = 9                               // daemon starts per run; setup_s is their median
	pollEvery     = 10 * time.Millisecond           // a waiting client's poll interval
	lateBound     = 20 * time.Millisecond           // generator lateness p99 beyond which a run is flagged
)

// steadyMix is serve-steady's open loop for a run of the given number
// of billing cycles: 5,000 requests/s, 98% in 100-request batch POSTs
// and 100/s as single POSTs.
func steadyMix(cycles int) mix {
	return mix{batchSize: 100, batchRate: 4900, singleRate: 100, span: time.Duration(cycles) * cycleDur}
}

// epochRecord is the part of a /debug/epochs row the benchmark reads.
type epochRecord struct {
	Epoch         int     `json:"epoch"`
	Cycle         int     `json:"cycle"`
	UnixMillis    int64   `json:"unixMillis"`
	Batch         int     `json:"batch"`
	Accepted      int     `json:"accepted"`
	Rejected      int     `json:"rejected"`
	Expired       int     `json:"expired"`
	Degraded      bool    `json:"degraded"`
	Overrun       bool    `json:"overrun"`
	ElapsedMillis float64 `json:"elapsedMillis"`
	RevenueDelta  float64 `json:"revenueDelta"`
	ProfitDelta   float64 `json:"profitDelta"`
}

// serveRun is everything one daemon phase measured.
type serveRun struct {
	setup       []float64   // s per daemon start
	decide      []float64   // ms, due → first poll seeing the terminal status
	ack         []float64   // ms, due → 202 of a single POST
	read        []float64   // ms per GET /v1/decisions/{id}
	batchPost   []float64   // ms per batch POST round trip
	rss         []rssSample // sampled while the traffic runs
	origin      time.Time
	late        []float64 // ms, sent − due
	attempted   int64
	failed      int64
	acked       int64
	degraded    int64 // degraded decisions
	decided     int64
	records     []epochRecord // every tick of the daemon, in epoch order
	vars0       map[string]float64
	vars1       map[string]float64
	stats       metis.ServeStats
	rssMiB      float64
	span        time.Duration // traffic span
	traceFile   string
	profit      float64
	byCycle     []float64
	revenueSum  float64
	naiveProfit float64
}

// clientPair returns the two single-connection HTTP clients.
func clientPair() (batch, single *http.Client) {
	mk := func() *http.Client {
		return &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return mk(), mk()
}

// runServeSteady measures the serve-steady workload.
func runServeSteady(opt options, rep *report) error {
	cycles := max(int(time.Duration(opt.seconds)*time.Second/cycleDur), 2)
	if !opt.trace {
		r, err := serveOnce(opt, rep, steadyMix(cycles), false)
		if err != nil {
			return err
		}
		reportServe(rep, r)
		return nil
	}
	// Traced run: a short untraced phase gives the base for the trace
	// overhead; the traced, checked phase gives the per-layer table.
	base := max(cycles/3, 1)
	r0, err := serveOnce(opt, rep, steadyMix(base), false)
	if err != nil {
		return err
	}
	rep.attempted += r0.attempted
	rep.failed += r0.failed
	r1, err := serveOnce(opt, rep, steadyMix(max(cycles-base, 1)), true)
	if err != nil {
		return err
	}
	reportServe(rep, r1)
	l, err := serveLayers(r1)
	if err != nil {
		return err
	}
	l["obs.trace_overhead"] = ratio(summarize(r1.decide).P50, summarize(r0.decide).P50)
	l.report(rep)
	return nil
}

// reportServe prints the end-to-end metrics of one daemon phase.
func reportServe(rep *report, r *serveRun) {
	rep.attempted += r.attempted
	rep.failed += r.failed
	setup := summarize(r.setup)
	rep.set("setup_s", setup.P50, "s", fmt.Sprintf("metisd exec → /healthz 200 incl. WAL open, median of %d", setup.N))
	dec := summarize(r.decide)
	if dec.TailP == 0 {
		rep.fail("%d polled decisions are too few for a tail percentile", dec.N)
	}
	rep.set("latency_p50_ms", dec.P50, "ms", "due → decision seen by a polling client; "+dec.String())
	rep.set("latency_tail_ms", dec.Tail, "ms", fmt.Sprintf("p%s of the same", trimFloat(dec.TailP)))
	busy := 0.0
	for _, rec := range r.records {
		busy += rec.ElapsedMillis / 1e3
	}
	rep.set("capacity_rps", ratio(float64(r.decided), busy), "1/s", "decisions per busy tick-second")
	rep.set("profit", r.profit, "profit", fmt.Sprintf("realized revenue − purchases, summed over %d billing cycles", len(r.byCycle)))
	rss := summarize(rssBetween(r.rss, r.origin, r.origin.Add(r.span)))
	rep.set("rss_mb", rss.P50, "MiB", fmt.Sprintf("metisd resident set while serving, median of %d samples", rss.N))
	rep.set("rss_peak_mb", r.rssMiB, "MiB", "metisd peak resident set (VmHWM)")
	ack, read := summarize(r.ack), summarize(r.read)
	rep.set("decide_p50_ms", dec.P50, "ms", "")
	rep.set("decide_p99_ms", percentileOf(dec, r.decide, 99), "ms", "")
	rep.set("ack_p99_ms", percentileOf(ack, r.ack, 99), "ms", "single POST, due → 202 (durable ack); "+ack.String())
	rep.set("read_p99_ms", percentileOf(read, r.read, 99), "ms", "GET /v1/decisions/{id}; "+read.String())
	rep.set("serve_profit", r.profit, "profit", fmt.Sprintf("Stats.Revenue − Stats.PurchasedCost would claim %.3f", r.naiveProfit))
	rep.set("fail_share", ratio(float64(r.failed), float64(r.attempted)), "ratio", "")
	rep.set("degraded_share", ratio(float64(r.degraded), float64(r.decided)), "ratio", "")
	rep.set("gen_late_p99_ms", percentile(r.late, 99), "ms", "generator lateness, sent − due; "+summarize(r.late).String())
	if p := percentile(r.late, 99); p > ms(lateBound) {
		fmt.Printf("FLAG: generator lateness p99 %.2f ms exceeds %.0f ms; latencies include the benchmark's own delay\n", p, ms(lateBound))
	}
}

// percentileOf returns percentile p of samples when t has enough
// samples for it (at least minBeyond beyond), else t's own tail.
func percentileOf(t timing, samples []float64, p float64) float64 {
	if t.N-1-rank(p, t.N) >= minBeyond {
		return percentile(samples, p)
	}
	return t.Tail
}

// serveOnce starts metisd (setup measured over several starts), plays
// the traffic against it from a billing-cycle start, waits until every
// acked request is decided, checks the outcome and scrapes the
// daemon's counters and scorecard. traced adds -trace and -check.
func serveOnce(opt options, rep *report, m mix, traced bool) (*serveRun, error) {
	if opt.metisd == "" {
		return nil, fmt.Errorf("serve-steady needs -metisd")
	}
	r := &serveRun{span: m.span}
	net := metis.B4()
	plan, err := schedule(net, clock{epoch: serveEpoch, slots: metis.DefaultSlots}, m, opt.seed)
	if err != nil {
		return nil, err
	}
	var extra []string
	if traced {
		r.traceFile = filepath.Join(opt.work, "trace.jsonl")
		extra = []string{"-trace", r.traceFile, "-check"}
	}
	var d *daemon
	for i := 0; i < serveSetupRep; i++ {
		dd, took, err := startDaemon(opt.metisd, filepath.Join(opt.work, fmt.Sprintf("daemon-%d", i)), extra...)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, took.Seconds())
		if i < serveSetupRep-1 {
			if err := dd.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dd.dir); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	defer func() {
		_ = d.stop()
		_ = os.RemoveAll(d.dir)
	}()

	batchC, singleC := clientPair()
	defer batchC.CloseIdleConnections()
	defer singleC.CloseIdleConnections()

	// Learn the daemon's epoch clock from its idle ticks, then start the
	// schedule at a slot-0 tick.
	time.Sleep(4 * serveEpoch)
	var idle []epochRecord
	if err := getJSON(singleC, d.base+"/debug/epochs", &idle); err != nil {
		return nil, err
	}
	origin, err := alignOrigin(idle, serveEpoch, metis.DefaultSlots, time.Now().Add(3*serveEpoch))
	if err != nil {
		return nil, err
	}
	r.origin = origin
	if time.Until(origin) < serveEpoch {
		return nil, fmt.Errorf("set-up overran the schedule origin")
	}
	if err := getJSON(singleC, d.base+"/debug/vars", &struct {
		Metis *map[string]float64 `json:"metis"`
	}{&r.vars0}); err != nil {
		return nil, err
	}

	stopRSS := sampleRSS(d.cmd.Process.Pid, &r.rss)
	drive(r, rep, net, plan, origin, d.base, batchC, singleC)
	stopRSS()

	// Every request is decided by the tick after its window's latest
	// decision slot; wait one more cycle boundary, then for an empty
	// queue.
	time.Sleep(time.Until(origin.Add(r.span + 2*serveEpoch)))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := getJSON(singleC, d.base+"/v1/stats", &r.stats); err != nil {
			return nil, err
		}
		if r.stats.QueueDepth == 0 && r.stats.Accepted+r.stats.Rejected >= r.acked {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(serveEpoch)
	}
	// The queue is empty, so no decision lands between the stats above
	// and the scorecard below.
	var all []epochRecord
	if err := getJSON(singleC, d.base+"/debug/epochs", &all); err != nil {
		return nil, err
	}
	if err := getJSON(singleC, d.base+"/debug/vars", &struct {
		Metis *map[string]float64 `json:"metis"`
	}{&r.vars1}); err != nil {
		return nil, err
	}
	if r.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	checkServe(r, rep, all)
	return r, nil
}

// alignOrigin estimates the daemon's tick clock from idle scorecard
// rows (an idle tick reaches its commit, whose time the row records,
// within a millisecond of its start) and returns the start of the first
// slot-0 tick after notBefore.
func alignOrigin(idle []epochRecord, epoch time.Duration, slots int, notBefore time.Time) (time.Time, error) {
	var zero []float64
	for _, r := range idle {
		if r.Batch == 0 {
			zero = append(zero, float64(r.UnixMillis)-float64(r.Epoch)*ms(epoch))
		}
	}
	if len(zero) == 0 {
		return time.Time{}, fmt.Errorf("no idle ticks to read the daemon's clock from")
	}
	t0 := time.UnixMicro(int64(percentile(zero, 50) * 1e3))
	n := int(notBefore.Sub(t0)/epoch) + 1
	n += (slots - n%slots) % slots
	return t0.Add(time.Duration(n) * epoch), nil
}

// drive plays the schedule: batch POSTs on one connection, single POSTs
// and decision polls on the other.
func drive(r *serveRun, rep *report, net *metis.Network, plan []arrival, origin time.Time, base string, batchC, singleC *http.Client) {
	var mu sync.Mutex // guards r and rep between the two senders
	seen := map[int64]bool{}
	ackIDs := func(ids []int64) {
		for _, id := range ids {
			if seen[id] {
				rep.fail("id %d acked twice", id)
			}
			seen[id] = true
		}
		r.acked += int64(len(ids))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendBatches(r, rep, &mu, ackIDs, plan, origin, base, batchC)
	}()

	// The single connection: each single POST is due on schedule and
	// takes precedence; between them the client polls the decisions it
	// waits for.
	polls := &pollHeap{}
	for i := range plan {
		a := &plan[i]
		if !a.single {
			continue
		}
		due := origin.Add(a.due)
		for polls.Len() > 0 && (*polls)[0].next.Before(due) {
			pollOne(r, rep, &mu, net, singleC, base, polls)
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		d, err := postSingle(singleC, base, a.body)
		done := time.Now()
		mu.Lock()
		r.late = append(r.late, ms(sent.Sub(due)))
		r.attempted++
		if err != nil {
			r.failed++
			rep.fail("single POST: %v", err)
			mu.Unlock()
			continue
		}
		r.ack = append(r.ack, ms(done.Sub(due)))
		ackIDs([]int64{d.ID})
		mu.Unlock()
		heap.Push(polls, &pending{id: d.ID, due: due, sent: a.sent, next: done.Add(pollEvery)})
	}
	for polls.Len() > 0 {
		pollOne(r, rep, &mu, net, singleC, base, polls)
	}
	wg.Wait()
}

// rssSample is one resident-set reading.
type rssSample struct {
	at  time.Time
	mib float64
}

// rssBetween returns the readings taken in [from, to), in MiB.
func rssBetween(samples []rssSample, from, to time.Time) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.at.Before(from) && s.at.Before(to) {
			out = append(out, s.mib)
		}
	}
	return out
}

// sampleRSS samples a process's resident set every 100 ms into out
// until the returned stop function is called; stop waits for the
// sampler to exit.
func sampleRSS(pid int, out *[]rssSample) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if v, err := procStatusMiB(strconv.Itoa(pid), "VmRSS:"); err == nil {
					*out = append(*out, rssSample{time.Now(), v})
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// sendBatches sends the plan's batch POSTs on one connection, each
// when it is due.
func sendBatches(r *serveRun, rep *report, mu *sync.Mutex, ackIDs func([]int64), plan []arrival, origin time.Time, base string, c *http.Client) {
	for i := range plan {
		a := &plan[i]
		if a.single {
			continue
		}
		due := origin.Add(a.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		results, err := postBatch(c, base, a.body)
		done := time.Now()
		mu.Lock()
		r.late = append(r.late, ms(sent.Sub(due)))
		r.batchPost = append(r.batchPost, ms(done.Sub(sent)))
		r.attempted += int64(a.n)
		if err == nil && len(results) != a.n {
			err = fmt.Errorf("%d results for %d requests", len(results), a.n)
		}
		if err != nil {
			r.failed += int64(a.n)
			rep.fail("batch POST: %v", err)
			mu.Unlock()
			continue
		}
		var ids []int64
		for _, res := range results {
			if res.Status == "queued" {
				ids = append(ids, res.ID)
			} else {
				r.failed++
				rep.fail("batch entry %s: %s", res.Status, res.Error)
			}
		}
		ackIDs(ids)
		mu.Unlock()
	}
}

// pending is a decision a waiting client polls for.
type pending struct {
	id   int64
	due  time.Time
	sent metis.Request
	next time.Time
	n    int
}

// pollHeap orders pending polls by their next poll time.
type pollHeap []*pending

func (h pollHeap) Len() int           { return len(h) }
func (h pollHeap) Less(i, j int) bool { return h[i].next.Before(h[j].next) }
func (h pollHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pollHeap) Push(x any)        { *h = append(*h, x.(*pending)) }
func (h *pollHeap) Pop() any {
	old := *h
	p := old[len(old)-1]
	*h = old[:len(old)-1]
	return p
}

// maxPolls bounds how long a client waits for one decision (3 s).
const maxPolls = 300

// pollOne makes the earliest pending poll when it is due.
func pollOne(r *serveRun, rep *report, mu *sync.Mutex, net *metis.Network, c *http.Client, base string, polls *pollHeap) {
	p := heap.Pop(polls).(*pending)
	time.Sleep(time.Until(p.next))
	t0 := time.Now()
	var d metis.ServeDecision
	err := getJSON(c, fmt.Sprintf("%s/v1/decisions/%d", base, p.id), &d)
	done := time.Now()
	mu.Lock()
	defer mu.Unlock()
	r.read = append(r.read, ms(done.Sub(t0)))
	if err != nil {
		r.failed++
		rep.fail("poll %d: %v", p.id, err)
		return
	}
	if d.Status == "queued" {
		p.n++
		if p.n >= maxPolls {
			r.failed++
			rep.fail("request %d still queued after %d polls", p.id, p.n)
			return
		}
		p.next = done.Add(pollEvery)
		heap.Push(polls, p)
		return
	}
	r.decide = append(r.decide, ms(done.Sub(p.due)))
	if err := checkDecision(net, &d, p.sent); err != nil {
		r.failed++
		rep.fail("decision %d: %v", p.id, err)
	}
}

// checkDecision verifies one terminal decision from outside: the echoed
// request is the one sent, and an accepted request holds a src→dst
// path of the network for a window inside the cycle.
func checkDecision(net *metis.Network, d *metis.ServeDecision, sent metis.Request) error {
	got := d.Request
	got.ID = 0
	if got != sent {
		return fmt.Errorf("echoed request %+v, sent %+v", got, sent)
	}
	switch d.Status {
	case "rejected":
		if d.Links != nil {
			return fmt.Errorf("rejected with links %v", d.Links)
		}
		return nil
	case "accepted":
	default:
		return fmt.Errorf("status %q is not terminal", d.Status)
	}
	if d.Slot < 0 || d.Slot > sent.End || sent.End >= metis.DefaultSlots || sent.Start < 0 {
		return fmt.Errorf("accepted in slot %d for window [%d, %d] of a %d-slot cycle", d.Slot, sent.Start, sent.End, metis.DefaultSlots)
	}
	if len(d.Links) == 0 {
		return fmt.Errorf("accepted without a path")
	}
	at, used := sent.Src, map[int]bool{}
	for _, e := range d.Links {
		if e < 0 || e >= net.NumLinks() || used[e] {
			return fmt.Errorf("path %v: bad or repeated link %d", d.Links, e)
		}
		used[e] = true
		l := net.Link(e)
		if l.From != at {
			return fmt.Errorf("path %v: link %d leaves DC %d, walk is at %d", d.Links, e, l.From, at)
		}
		at = l.To
	}
	if at != sent.Dst {
		return fmt.Errorf("path %v ends at DC %d, want %d", d.Links, at, sent.Dst)
	}
	return nil
}

// postBatch submits one pre-encoded batch.
func postBatch(c *http.Client, base string, body []byte) ([]metis.ServeBatchResult, error) {
	resp, err := c.Post(base+"/v1/requests/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var out []metis.ServeBatchResult
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// postSingle submits one pre-encoded request and returns its ack.
func postSingle(c *http.Client, base string, body []byte) (*metis.ServeDecision, error) {
	resp, err := c.Post(base+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var d metis.ServeDecision
	return &d, json.NewDecoder(resp.Body).Decode(&d)
}

// checkServe checks the phase's outcome against the daemon's own
// accounts and computes realized profit per billing cycle.
func checkServe(r *serveRun, rep *report, all []epochRecord) {
	st := &r.stats
	var decided int64
	for i, rec := range all {
		if rec.Epoch != i {
			rep.fail("scorecard row %d is epoch %d; rows were dropped (raise -scorecard)", i, rec.Epoch)
			break
		}
		decided += int64(rec.Accepted + rec.Rejected + rec.Expired)
	}
	if decided != st.Accepted+st.Rejected {
		rep.fail("scorecard rows decide %d requests, /v1/stats %d", decided, st.Accepted+st.Rejected)
	}
	if st.Submitted != r.acked {
		rep.fail("daemon counts %d submits, perfbench got %d acks", st.Submitted, r.acked)
	}
	if undecided := r.acked - (st.Accepted + st.Rejected); undecided != 0 || st.QueueDepth != 0 {
		r.failed += max(undecided, 0)
		rep.fail("%d acked requests undecided (%d queued) after the drain wait", undecided, st.QueueDepth)
	}
	if st.Shed > 0 {
		r.failed += st.Shed
		rep.fail("%d requests shed", st.Shed)
	}
	if st.CheckFailures > 0 {
		rep.fail("%d ledger check failures: %s", st.CheckFailures, st.LastCheckError)
	}
	r.decided = st.Accepted + st.Rejected
	r.degraded = st.DegradedDecisions

	// Realized profit per billing cycle: each tick's revenue less the
	// purchases it made, summed per cycle. The ledger (and with it the
	// purchases) resets at every cycle boundary.
	cycles := map[int]float64{}
	var ids []int
	r.records = all
	for _, rec := range all {
		if _, ok := cycles[rec.Cycle]; !ok {
			ids = append(ids, rec.Cycle)
		}
		cycles[rec.Cycle] += rec.ProfitDelta
		r.revenueSum += rec.RevenueDelta
	}
	sort.Ints(ids)
	for _, id := range ids {
		if cycles[id] != 0 {
			r.byCycle = append(r.byCycle, cycles[id])
		}
		r.profit += cycles[id]
	}
	if d := r.revenueSum - st.Revenue; d > 1e-6*max(1, st.Revenue) || -d > 1e-6*max(1, st.Revenue) {
		rep.fail("scorecard revenue %.6f disagrees with /v1/stats revenue %.6f", r.revenueSum, st.Revenue)
	}
	r.naiveProfit = st.Revenue - st.PurchasedCost
}

// serveLayers derives a traced phase's per-layer table from the
// scorecard, the obs counters, the daemon's trace and the benchmark's own
// timings.
func serveLayers(r *serveRun) (layerMetrics, error) {
	delta := func(k string) float64 { return r.vars1[k] - r.vars0[k] }
	var tick, batch []float64
	busy, overruns, degraded := 0.0, 0, 0
	for _, rec := range r.records {
		busy += rec.ElapsedMillis / 1e3
		if rec.Batch > 0 {
			tick = append(tick, rec.ElapsedMillis)
			batch = append(batch, float64(rec.Batch))
		}
		if rec.Overrun {
			overruns++
		}
		if rec.Degraded {
			degraded++
		}
	}
	solveMS, selfMS, solveReqs, err := readServeTrace(r.traceFile)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(r.traceFile); err != nil {
		return nil, err
	}
	solveSum := 0.0
	for _, v := range solveMS {
		solveSum += v
	}
	ticks := float64(len(r.records))
	return layerMetrics{
		"lp.iters_per_tick":          ratio(delta("lp.iters"), ticks),
		"lp.lu.factors":              delta("lp.lu.factors"),
		"lp.lu.updates":              delta("lp.lu.updates"),
		"lp.warm.hit_ratio":          ratio(delta("lp.warm.hits"), delta("lp.warm.attempts")),
		"lp.dual_cold_starts":        delta("lp.pricing.dual_cold_starts"),
		"lp.degenerate_share":        ratio(delta("lp.degenerate_pivots"), delta("lp.pivots")),
		"core.rounds":                delta("core.rounds"),
		"core.stall_rounds":          delta("core.stall_rounds"),
		"taa.walk_steps":             delta("taa.walk_steps"),
		"core.replan_complete_ratio": 1 - ratio(delta("serve.replans_degraded"), delta("serve.replans")),
		"core.replan.fallbacks":      delta("core.replan.fallbacks"),
		"spm.session.cold_resolves":  delta("spm.session.cold_resolves"),
		"serve.tick_p50_ms":          percentile(tick, 50),
		"serve.tick_p99_ms":          percentile(tick, 99),
		"serve.batch_p50":            percentile(batch, 50),
		"serve.solve_ms":             percentile(solveMS, 50),
		"serve.solve_us_per_req":     ratio(solveSum*1e3, solveReqs),
		"serve.tick_self_ms":         percentile(selfMS, 50),
		"serve.decisions_per_busy_s": ratio(float64(r.decided), busy),
		"serve.overruns":             float64(overruns),
		"serve.degraded_epochs":      float64(degraded),
		"serve.expired_share":        ratio(delta("serve.expired"), float64(r.decided)),
		"http.batch_post_p50_ms":     percentile(r.batchPost, 50),
		"http.batch_post_p99_ms":     percentile(r.batchPost, 99),
		"http.ack_p99_ms":            percentile(r.ack, 99),
		"http.read_p99_ms":           percentile(r.read, 99),
		"wal.appends_per_fsync":      ratio(delta("wal.appends"), delta("wal.fsyncs")),
		"wal.fsyncs_per_s":           ratio(delta("wal.fsyncs"), r.span.Seconds()),
		"wal.bytes_per_decision":     ratio(delta("wal.bytes"), float64(r.decided)),
		"gen.late_p99_ms":            percentile(r.late, 99),
	}, nil
}

// readServeTrace reads the daemon's JSONL trace: per tick the policy
// call ("serve.solve") and the rest of the tick ("serve.epoch" minus
// its solve), in ms, and the requests the solves decided.
func readServeTrace(path string) (solveMS, selfMS []float64, reqs float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	solveByEpoch := map[int]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		isSolve := bytes.Contains(line, []byte(`"serve.solve"`))
		if !isSolve && !bytes.Contains(line, []byte(`"serve.epoch"`)) {
			continue
		}
		var rec struct {
			DurUS  int64 `json:"dur_us"`
			Fields struct {
				Epoch    int     `json:"epoch"`
				Requests float64 `json:"requests"`
				Batch    int     `json:"batch"`
			} `json:"fields"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, 0, fmt.Errorf("trace %s: %w", path, err)
		}
		d := float64(rec.DurUS) / 1e3
		if isSolve {
			solveMS = append(solveMS, d)
			solveByEpoch[rec.Fields.Epoch] = d
			reqs += rec.Fields.Requests
		} else if rec.Fields.Batch > 0 {
			selfMS = append(selfMS, d-solveByEpoch[rec.Fields.Epoch])
		}
	}
	return solveMS, selfMS, reqs, sc.Err()
}
