package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/serve"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

const (
	// serveQuota is the per-thread budget of every served request.
	serveQuota = 4_000
	// coldEvery makes every coldEvery-th request of a client a cold
	// request with a fresh seed, the first one of client 0 and the
	// coldEvery/2-th of client 1 included; the rest repeat the
	// pre-warmed set.
	coldEvery = 400
	// clients is the number of closed-loop keep-alive clients.
	clients = 2
	// setupRepeats is how many times the server is set up per run.
	setupRepeats = 30
)

// warmSpecs is the pre-warmed request set: both L1 organisations, three
// benchmarks.
var warmSpecs = []string{"SH-STT-CC/radix", "PR-SRAM-NT/ocean", "SH-STT/fft", "PR-STT-CC/radix", "SH-STT-CC/ocean", "PR-SRAM-NT/radix"}

// served is one completed request.
type served struct {
	cold bool
	warm int   // index into the warm set (hits)
	p    point // the request (cold)
	lat  time.Duration
	body []byte
	err  error
}

// serveRun is one serve workload run: the live server plus the
// reference bodies every reply is checked against.
type serveRun struct {
	e     *env
	warm  []point
	reqs  [][]byte // request bodies of the warm set
	refs  [][]byte // direct-run encodings of the warm set
	jdir  string
	tele  *telemetry.Collector
	srv   *serve.Server
	hs    *http.Server
	url   string
	done  chan struct{} // closed when the live server's Serve returns
	pass  int           // distinguishes cold seeds across passes
	setup samples       // set-up repeats, seconds
	newMs samples       // serve.New within each repeat, ms
}

// direct runs a request with the collector respin-serve attaches and
// returns its canonical encoding, the reference for a served body.
func direct(tr *tracer, op int, p point, lr *layerReport) ([]byte, sim.Result, error) {
	settle()
	opts := p.opts
	opts.Telemetry = telemetry.New()
	root := tr.begin("bench/verify", 0, op)
	defer tr.end(root)
	res, newD, runD, err := simOp(tr, op, root, p, opts)
	if err != nil {
		return nil, res, err
	}
	if lr != nil {
		lr.sim.add(res, newD, runD)
	}
	body, err := encode(p.req, res)
	return body, res, err
}

// runServe is the serve workload: an in-process journaled respin-serve
// on a loopback listener, two closed-loop keep-alive clients POSTing
// /v1/run, mostly repeats of a pre-warmed set and a fixed share of cold
// requests with fresh seeds.
func runServe(e *env) (*outcome, error) {
	s := &serveRun{e: e, jdir: filepath.Join(e.dir, "journal")}
	oc := &outcome{}
	var lr *layerReport
	if e.traced() {
		lr = &layerReport{}
	}
	if err := s.prepare(oc, lr); err != nil {
		return nil, err
	}
	for i := range setupRepeats {
		if err := s.start(i == setupRepeats-1); err != nil {
			return nil, err
		}
	}
	defer s.stop()
	// One untimed warm-up request per client.
	warm, err := s.loadPass(0, []int{1, 1}, nil)
	if err != nil {
		return nil, err
	}
	if err := s.account(oc, warm, nil, nil); err != nil {
		return nil, err
	}
	if e.traced() {
		return s.traced(oc, lr)
	}
	settle()
	l := &load{setup: s.setup}
	l.begin()
	recs, err := s.loadPass(e.window, nil, nil)
	if err != nil {
		return nil, err
	}
	l.finish()
	if err := s.account(oc, recs, l, nil); err != nil {
		return nil, err
	}
	s.printHitShare()
	oc.metrics = l.metrics()
	return oc, nil
}

// prepare computes the warm set's reference bodies by direct runs and
// journals the set through a first server.
func (s *serveRun) prepare(oc *outcome, lr *layerReport) error {
	e := s.e
	pts, err := points(e.simSeed, e.quota(serveQuota), warmSpecs...)
	if err != nil {
		return err
	}
	s.warm = pts
	srv, err := newServer(s.jdir, nil)
	if err != nil {
		return err
	}
	for _, p := range pts {
		body, res, err := direct(e.tr, 0, p, lr)
		if err != nil {
			return err
		}
		oc.attempted++
		ok := verify(e, p, res, true)
		req, err := v1.EncodeBytes(p.req)
		if err != nil {
			return err
		}
		s.reqs = append(s.reqs, req)
		s.refs = append(s.refs, body)
		if lr != nil {
			lr.apiPoints = append(lr.apiPoints, p)
			lr.apiDocs = append(lr.apiDocs, apiDoc{p.req, res})
		}
		got, err := handle(srv.Handler(), req)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, body) {
			ok = false
			e.chk.fail("%s: served body differs from the direct run", p.label())
		}
		if !ok {
			oc.failed++
		}
	}
	return nil
}

// start sets the server up once — serve.New replaying the journal, a
// loopback listener, the first /v1/healthz answered 200 — and records
// the time. Unless keep is set, the server is then shut down again.
func (s *serveRun) start(keep bool) error {
	settle()
	tr := s.e.tr
	tele := telemetry.New()
	t0 := time.Now()
	var srv *serve.Server
	var err error
	s.newMs = append(s.newMs, ms(tr.timed("serve/New", 0, 0, func(int) { srv, err = newServer(s.jdir, tele) })))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: spanHandler(tr, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()
	cl := &http.Client{Timeout: 10 * time.Second}
	err = healthz(cl, url)
	s.setup = append(s.setup, time.Since(t0).Seconds())
	cl.CloseIdleConnections()
	s.srv, s.hs, s.url, s.done, s.tele = srv, hs, url, done, tele
	if err != nil || !keep {
		s.stop()
	}
	return err
}

// healthz polls /v1/healthz until it answers 200.
func healthz(cl *http.Client, url string) error {
	for try := 0; ; try++ {
		resp, err := cl.Get(url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if try == 100 {
			return fmt.Errorf("GET /v1/healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the current server and waits for it to exit.
func (s *serveRun) stop() {
	if s.hs == nil {
		return
	}
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.hs = nil
}

// spanHandler wraps the service handler in a span for requests that
// carry the client's span id.
func spanHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get("Perfbench-Span"))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.Atoi(r.Header.Get("Perfbench-Op"))
		id := tr.begin("serve/Handler", parent, op)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// loadPass runs the clients until the window closes, or, with counts
// set, for exactly counts[g] requests each. Spans are recorded when tr
// is set.
func (s *serveRun) loadPass(window time.Duration, counts []int, tr *tracer) ([][]served, error) {
	s.pass++
	deadline := time.Now().Add(window)
	recs := make([][]served, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[g], errs[g] = s.client(g, deadline, counts, tr)
		}()
	}
	wg.Wait()
	return recs, errors.Join(errs...)
}

// client is one closed-loop client: it sends its next request only
// once the previous reply has been read.
func (s *serveRun) client(g int, deadline time.Time, counts []int, tr *tracer) ([]served, error) {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tp.CloseIdleConnections()
	cl := &http.Client{Transport: tp, Timeout: 120 * time.Second}
	rng := rand.New(rand.NewSource(s.e.simSeed*7919 + int64(g)))
	var out []served
	for j := 0; ; j++ {
		if counts != nil && j == counts[g] || counts == nil && !time.Now().Before(deadline) {
			return out, nil
		}
		r := served{warm: rng.Intn(len(s.warm))}
		body := s.reqs[r.warm]
		if j%coldEvery == g*coldEvery/2 {
			seed := s.e.simSeed*1_000_000_000 + int64(s.pass)*10_000_000 + int64(g)*1_000_000 + int64(j) + 1
			p, err := newPoint("SH-STT-CC", "radix", s.e.quota(serveQuota), seed)
			if err != nil {
				return out, err
			}
			if body, err = v1.EncodeBytes(p.req); err != nil {
				return out, err
			}
			r.cold, r.p = true, p
		}
		op := (s.pass*clients+g)*1_000_000 + j
		id := tr.begin("http/POST /v1/run", 0, op)
		req, err := http.NewRequest(http.MethodPost, s.url+"/v1/run", bytes.NewReader(body))
		if err != nil {
			return out, err
		}
		req.Header.Set("Content-Type", "application/json")
		if tr != nil {
			req.Header.Set("Perfbench-Span", strconv.Itoa(id))
			req.Header.Set("Perfbench-Op", strconv.Itoa(op))
		}
		t0 := time.Now()
		resp, err := cl.Do(req)
		if err == nil {
			r.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, r.body)
			}
		}
		r.lat = time.Since(t0)
		tr.end(id)
		if err == nil && !r.cold {
			// Hits are checked here so their bodies need not be kept.
			if !bytes.Equal(r.body, s.refs[r.warm]) {
				err = fmt.Errorf("%s: served hit differs from the direct run", s.warm[r.warm].label())
			}
			r.body = nil
		}
		r.err = err
		out = append(out, r)
	}
}

// account checks every reply and adds the load figures. Hits are
// compared with the warm set's reference bodies; each cold reply is
// compared with a direct run of the same request.
func (s *serveRun) account(oc *outcome, recs [][]served, l *load, lr *layerReport) error {
	for _, rs := range recs {
		for i, r := range rs {
			oc.attempted++
			if r.err != nil {
				oc.failed++
				s.e.chk.fail("request: %v", r.err)
				continue
			}
			if !r.cold {
				if l != nil {
					l.ops = append(l.ops, r.lat.Seconds())
					l.hits = append(l.hits, ms(r.lat))
				}
				continue
			}
			body, res, err := direct(s.e.tr, i, r.p, lr)
			if err != nil {
				return err
			}
			ok := verify(s.e, r.p, res, false)
			if !bytes.Equal(r.body, body) {
				ok = false
				s.e.chk.fail("%s: served body differs from the direct run", r.p.label())
			}
			if !ok {
				oc.failed++
			}
			if l != nil {
				l.ops = append(l.ops, r.lat.Seconds())
				l.colds = append(l.colds, ms(r.lat))
				l.instr += float64(res.Instructions)
				l.simS += r.lat.Seconds()
			}
		}
	}
	return nil
}

// printHitShare reports the share of run requests the server answered
// from finished work (its journal or the runner's cache).
func (s *serveRun) printHitShare() {
	snap := s.tele.Snapshot()
	hits := snap.Value("journal.hits") + snap.Value("run.cache_hits")
	runs := hits + snap.Value("run.runs_started")
	s.e.printf("# serve hit share: %.4f (%.0f of %.0f run requests; journal %.0f, runner cache %.0f; rejected %.0f)",
		ratio(hits, runs), hits, runs, snap.Value("journal.hits"), snap.Value("run.cache_hits"), snap.Value("http.rejected"))
}

// traced is the serve workload's traced run: an untraced pass, then a
// traced pass of the same request counts, then the shared probes.
func (s *serveRun) traced(oc *outcome, lr *layerReport) (*outcome, error) {
	e := s.e
	w, err := watchRenames(s.jdir)
	if err != nil {
		return nil, err
	}
	defer w.close()
	settle()
	h0 := readHeap()
	t0 := time.Now()
	plain, err := s.loadPass(e.window/3, nil, nil)
	if err != nil {
		return nil, err
	}
	plainWall := time.Since(t0)
	counts := make([]int, clients)
	for g := range plain {
		counts[g] = len(plain[g])
	}
	t0 = time.Now()
	tracedRecs, err := s.loadPass(0, counts, e.tr)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0)
	h := readHeap().sub(h0)
	n := 0
	colds := 0
	for _, rs := range append(plain, tracedRecs...) {
		n += len(rs)
		for _, r := range rs {
			if r.cold {
				colds++
			}
		}
	}
	writes, err := w.count(".ckpt")
	if err != nil {
		return nil, err
	}
	lr.writesPerOp = ratio(float64(writes), float64(colds))
	lr.overhead = tracedWall.Seconds() / plainWall.Seconds()
	lr.overheadN = n / 2
	lr.gcCycles = float64(h.gcs) / float64(n)
	lr.gcPauseMs = float64(h.pauseNs) / 1e6 / float64(n)
	if err := s.account(oc, plain, nil, nil); err != nil {
		return nil, err
	}
	if err := s.account(oc, tracedRecs, nil, lr); err != nil {
		return nil, err
	}
	s.printHitShare()
	snap := s.tele.Snapshot()
	lr.rejected = ratio(snap.Value("http.rejected"), snap.Value("http.requests"))
	lr.replay = s.newMs
	h2 := s.srv.Handler()
	for i := range 200 {
		var herr error
		d := e.tr.timed("serve/Handler", 0, 0, func(int) { _, herr = handle(h2, s.reqs[i%len(s.reqs)]) })
		if herr != nil {
			return nil, herr
		}
		lr.handlerHit = append(lr.handlerHit, float64(d.Nanoseconds())/1e3)
	}
	cold, err := newPoint("SH-STT-CC", "radix", e.quota(serveQuota), e.simSeed)
	if err != nil {
		return nil, err
	}
	cycles := uint64(0)
	for _, d := range lr.apiDocs {
		if d.req.Key() == cold.req.Key() {
			cycles = d.res.Cycles
		}
	}
	if err := probeLayers(e, lr, cold, cycles, ""); err != nil {
		return nil, err
	}
	oc.metrics = lr.metrics()
	return oc, nil
}
