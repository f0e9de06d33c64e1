package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nomad"
	"nomad/internal/serve"
)

// Serving load, as fractions of the measuring time. Each round runs an
// open loop at a low and at a high fixed rate, a closed loop for
// capacity, and an open loop at the low rate across a checkpoint swap;
// an open-loop rate ladder ends the run.
const (
	serveTopN     = 10
	serveRounds   = 5
	lowQPS        = 60
	highQPS       = 150
	lowShare      = 0.035
	highShare     = 0.09
	capacityShare = 0.025
	swapShare     = 0.035
	ladderShare   = 0.035 // each ladder step
	// latencyLimitMs caps the tail latency (the highest percentile with
	// ten samples beyond it) a ladder step may show and still pass.
	latencyLimitMs = 50
)

// ladderFractions are the ladder's rates as fractions of the measured
// closed-loop capacity.
var ladderFractions = []float64{0.7, 0.85}

// served is one sampled response kept for the correctness check.
type served struct {
	user  int32
	epoch uint64
	items []serve.RecItem
}

// loadResult is one open-loop phase.
type loadResult struct {
	latency sample // ms from each request's due time to its response
	late    sample // ms the generator ran behind each due time
	sent    int
	errs    int
	backlog int // requests not yet started when the last one fell due
	kept    []served
}

// server is the serving stack under test, on a loopback listener.
type server struct {
	store *serve.Store
	hs    *http.Server
	url   string
	done  chan struct{}
}

func startServer(ep *serve.Epoch, ds *nomad.Dataset) (*server, error) {
	store := serve.NewStore()
	store.Promote(ep)
	srv := serve.NewServer(serve.Config{
		Store: store,
		Rated: func(u int32) []int32 { return ds.RatedItems(int(u)) },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{store: store, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: server:", err)
		}
	}()
	return s, nil
}

// stop closes the server and waits for its serve loop to return.
func (s *server) stop() {
	s.hs.Close()
	<-s.done
}

// waitHealthy polls /healthz until the server answers 200.
func waitHealthy(c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server not healthy within 10s")
}

// loadGen is an open-loop generator with a fixed number of client
// connections.
type loadGen struct {
	b      *bench
	client *http.Client
	url    string
	conns  int
	users  int
	rng    *rand.Rand

	// checkEvery keeps one response in checkEvery for the
	// Model.Recommend comparison.
	checkEvery int

	mu        sync.Mutex
	firstSeen map[uint64]time.Time // first response time per epoch
}

// run sends requests at qps for dur, each due at a fixed offset from the
// phase start whether or not earlier ones have finished, and times each
// from its due time. during, when set, runs beside the load; its
// argument is closed once every request of the phase has finished.
func (g *loadGen) run(name string, qps float64, dur time.Duration, during func(loadDone <-chan struct{})) loadResult {
	total := int(qps * dur.Seconds())
	type job struct {
		due  time.Time
		user int32
	}
	// Sized to the whole phase so the generator never blocks on it.
	jobs := make(chan job, total)
	var res loadResult
	var mu sync.Mutex
	phase := g.b.tr.begin("bench.load."+name, 0)

	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				rr, err := g.get(j.user)
				done := time.Now()
				req := g.b.tr.record("http.request", phase, j.due, done)
				g.b.tr.record("client.wait", req, j.due, sent)
				g.b.tr.record("http.roundtrip", req, sent, done)
				mu.Lock()
				res.sent++
				if err != nil {
					res.errs++
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "perfbench: request: %v\n", err)
					continue
				}
				res.latency.add(float64(done.Sub(j.due).Nanoseconds()) / 1e6)
				if g.checkEvery > 0 && res.sent%g.checkEvery == 0 {
					res.kept = append(res.kept, served{user: rr.User, epoch: rr.Epoch, items: rr.Items})
				}
				mu.Unlock()
				g.mu.Lock()
				if _, ok := g.firstSeen[rr.Epoch]; !ok {
					g.firstSeen[rr.Epoch] = done
				}
				g.mu.Unlock()
			}
		}()
	}
	var side sync.WaitGroup
	loadDone := make(chan struct{})
	if during != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			during(loadDone)
		}()
	}
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) / qps * float64(time.Second)))
		time.Sleep(time.Until(due))
		res.late.add(float64(time.Since(due).Nanoseconds()) / 1e6)
		jobs <- job{due: due, user: int32(g.rng.IntN(g.users))}
	}
	res.backlog = len(jobs)
	close(jobs)
	wg.Wait()
	close(loadDone)
	side.Wait()
	g.b.tr.finish(phase)
	return res
}

// get performs one recommendation request.
func (g *loadGen) get(user int32) (serve.RecResponse, error) {
	var rr serve.RecResponse
	resp, err := g.client.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", g.url, user, serveTopN))
	if err != nil {
		return rr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		return rr, fmt.Errorf("HTTP status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return rr, fmt.Errorf("decode response: %w", err)
	}
	return rr, nil
}

// runServe measures the serve-longtail workload.
func (b *bench) runServe() error {
	in := genRatings(longtailSpec(1), b.seed)
	b.info("input_digest", fmt.Sprintf("%016x", in.digest))
	b.info("input_shape", fmt.Sprintf("%d users x %d items, %d rated, k=%d model",
		in.spec.users, in.spec.items, len(in.train), serveModelRank))
	dir := filepath.Join(workDir, "serve-"+b.tr.run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(dir)
	// Two checkpoints: the one served first, and the next epoch's that
	// is swapped in and out under load.
	paths := []string{filepath.Join(dir, "model-a.bin"), filepath.Join(dir, "model-b.bin")}
	for v, path := range paths {
		if err := writeModel(path, synthServeModel(in, b.seed, v)); b.op(err) {
			return err
		}
	}

	conns := b.nproc
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()

	var srv *server
	var ds *nomad.Dataset
	var setup, build sample
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
			srv, ds = nil, nil
		}
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		id := b.tr.begin("bench.setup", 0)
		t0 := time.Now()
		var err error
		b.tr.timed("sparse.NewDataset", id, func(int64) {
			ds, err = nomad.NewDataset(in.spec.users, in.spec.items, in.train, in.test)
		})
		if b.op(err) {
			return fmt.Errorf("new dataset: %w", err)
		}
		build.addDur(time.Since(t0))
		var ep *serve.Epoch
		b.tr.timed("serve.LoadEpoch", id, func(int64) { ep, err = serve.LoadEpoch(paths[0], 1, nil) })
		if b.op(err) {
			return err
		}
		b.tr.timed("serve.Server.start", id, func(int64) {
			if srv, err = startServer(ep, ds); err == nil {
				err = waitHealthy(client, srv.url)
			}
		})
		if b.op(err) {
			return err
		}
		setup.addDur(time.Since(t0))
		b.tr.finish(id)
	}
	defer srv.stop()

	g := &loadGen{b: b, client: client, url: srv.url, conns: conns, users: in.spec.users,
		rng: rand.New(rand.NewPCG(b.seed, 0x6c6f6164)), firstSeen: make(map[uint64]time.Time)}
	phase := func(share float64) time.Duration { return time.Duration(share * float64(b.budget)) }

	// The phases repeat in rounds. The tail latency and the capacity are
	// each the best of the rounds: host noise on this kind of shared
	// 2-core machine comes in bursts of seconds that can double a tail,
	// and every round runs the same code, so the quietest round is the
	// steadiest measure of it. Even so the tail spreads too widely
	// across runs to be gated; it is printed. The median latency pools the rounds'
	// samples, as one low-rate round has too few for a steady median of
	// its own. The swap time is the median swap: a single swap varies
	// more than host noise does, so the fastest one is an outlier.
	var phases []loadResult
	var lowP50, highTail, capQPS, swapTimes, highUntraced, highTraced sample
	var lowAll, highAll, swapAll sample
	var late []float64
	fileOf := map[uint64]string{1: paths[0]}
	seq := uint64(1)
	for round := 0; round < serveRounds; round++ {
		// A traced run traces every round but the first, which gives
		// the tracing overhead.
		b.tr.on.Store(b.trace && round > 0)

		runtime.GC()
		g.checkEvery = 50
		low := g.run("low", lowQPS, phase(lowShare), nil)

		runtime.GC()
		g.checkEvery = 100
		high := g.run("high", highQPS, phase(highShare), nil)

		runtime.GC()
		capacity := g.closedLoop(phase(capacityShare))

		// A checkpoint swap under low-rate load: the other checkpoint is
		// loaded as the next epoch and promoted as the phase starts.
		runtime.GC()
		g.checkEvery = 5
		var swapErr error
		seq++
		path := paths[(seq+1)%2]
		swapping := g.run("swap", lowQPS, phase(swapShare), func(loadDone <-chan struct{}) {
			d, err := b.swap(srv.store, g, path, seq, loadDone)
			if err != nil {
				swapErr = err
				return
			}
			swapTimes.add(d.Seconds())
		})
		fileOf[seq] = path
		if b.op(swapErr) {
			return swapErr
		}
		phases = append(phases, low, high, capacity.loadResult, swapping)
		swapAll.xs = append(swapAll.xs, swapping.latency.xs...)

		_, tail, _ := high.latency.tail()
		if round == 0 {
			highUntraced.add(high.latency.median())
		} else {
			highTraced.add(high.latency.median())
		}
		lowP50.add(low.latency.median())
		highTail.add(tail)
		capQPS.add(float64(capacity.sent) / capacity.elapsed.Seconds())
		lowAll.xs = append(lowAll.xs, low.latency.xs...)
		highAll.xs = append(highAll.xs, high.latency.xs...)
		late = append(append(late, low.late.xs...), high.late.xs...)
	}

	b.tr.on.Store(b.trace)

	// Ladder: open-loop steps at fractions of the capacity until one
	// misses the latency limit or leaves a growing backlog; the highest
	// passing rate is interpolated to where the tail would meet the
	// limit.
	runtime.GC()
	g.checkEvery = 200
	var maxQPS float64
	var steps []string
	lastRate, lastTail := 0.0, 0.0
	for i, f := range ladderFractions {
		rate := f * capQPS.max()
		st := g.run("ladder", rate, phase(ladderShare), nil)
		phases = append(phases, st)
		pct, tail, ok := st.latency.tail()
		steps = append(steps, fmt.Sprintf("%.0fqps:p%g=%.1fms,backlog=%d", rate, pct, tail, st.backlog))
		// A backlog that would take longer than the limit to serve is
		// growing faster than the server drains it.
		growing := float64(st.backlog) > rate*latencyLimitMs/1000
		if !ok || st.errs > 0 || tail > latencyLimitMs || growing {
			if lastRate > 0 && tail > latencyLimitMs && !growing {
				maxQPS = lastRate + (rate-lastRate)*(latencyLimitMs-lastTail)/(tail-lastTail)
			} else {
				maxQPS = lastRate
			}
			break
		}
		lastRate, lastTail, maxQPS = rate, tail, rate
		if i == len(ladderFractions)-1 {
			steps = append(steps, "all steps met the limit")
		}
	}
	b.info("serve.ladder", fmt.Sprint(steps))

	var kept []served
	for _, r := range phases {
		b.attempted += r.sent
		b.failed += r.errs
		kept = append(kept, r.kept...)
	}

	// Correctness: sampled responses equal Model.Recommend on the epoch
	// that answered them.
	runtime.GC()
	models := map[string]*nomad.Model{}
	for _, r := range kept {
		path, ok := fileOf[r.epoch]
		if !ok {
			b.check(false, "response from unknown epoch %d", r.epoch)
			continue
		}
		m := models[path]
		if m == nil {
			var err error
			if m, err = loadModel(path); b.op(err) {
				return err
			}
			models[path] = m
		}
		b.check(sameRecs(r.items, m.Recommend(ds, int(r.user), serveTopN)),
			"user %d epoch %d: served items differ from Model.Recommend", r.user, r.epoch)
	}

	lowPct, lowTail, _ := lowAll.tail()
	swapPct, swapTail, _ := swapAll.tail()
	highPct, highPooled, _ := highAll.tail()
	tailPct, _ := tailPercentile(int(highQPS * phase(highShare).Seconds()))
	b.e2e("setup_s", "s", setup.median())
	b.e2e("throughput_per_s", "1/s", capQPS.max())
	b.e2e("time_to_result_s", "s", swapTimes.median())
	b.e2e("latency_p50_ms", "ms", lowAll.median())
	b.info("serve_p50_ms.low", fmt.Sprintf("%.4g ms (pooled, %d samples at %d qps; rounds %.3g)",
		lowAll.median(), lowAll.n(), lowQPS, lowP50.xs))
	b.info(fmt.Sprintf("serve_p%g_ms.swap", swapPct), fmt.Sprintf("%.4g ms (pooled, %d samples at %d qps across %d swaps; p50 %.4g ms)",
		swapTail, swapAll.n(), lowQPS, swapTimes.n(), swapAll.median()))
	b.info(fmt.Sprintf("serve_p%g_ms.low", lowPct), fmt.Sprintf("%.4g ms (pooled, %d samples)", lowTail, lowAll.n()))
	b.info(fmt.Sprintf("serve_p%g_ms.high", tailPct), fmt.Sprintf("%.4g ms (best of rounds %.3g at %d qps)", highTail.min(), highTail.xs, highQPS))
	b.info(fmt.Sprintf("serve_p%g_ms.high", highPct), fmt.Sprintf("%.4g ms (pooled, %d samples)", highPooled, highAll.n()))
	b.info("serve_capacity_qps", fmt.Sprintf("%.4g 1/s (closed loop, %d connections, best of rounds %.4g)", capQPS.max(), conns, capQPS.xs))
	b.info("serve_max_qps", fmt.Sprintf("%.4g 1/s (open loop, limit %d ms on the tail)", maxQPS, latencyLimitMs))
	b.info("swap_s", fmt.Sprintf("%.4g s (median of %.3g)", swapTimes.median(), swapTimes.xs))

	if b.trace {
		overhead := highTraced.median()/highUntraced.median() - 1
		return b.serveLayerMetrics(in, ds, paths[0], build, late, lowAll.median(), overhead)
	}
	return nil
}

// swap loads path as epoch seq, promotes it, and returns the time from
// the start of the load until a response from the new epoch arrives.
func (b *bench) swap(store *serve.Store, g *loadGen, path string, seq uint64, loadDone <-chan struct{}) (time.Duration, error) {
	placed := time.Now()
	var ep *serve.Epoch
	var err error
	b.tr.timed("serve.swap", 0, func(id int64) {
		b.tr.timed("serve.LoadEpoch", id, func(int64) { ep, err = serve.LoadEpoch(path, seq, nil) })
		if err == nil {
			b.tr.timed("serve.Store.Promote", id, func(int64) { store.Promote(ep) })
		}
	})
	if err != nil {
		return 0, err
	}
	for {
		g.mu.Lock()
		seen, ok := g.firstSeen[seq]
		g.mu.Unlock()
		if ok {
			return seen.Sub(placed), nil
		}
		select {
		case <-loadDone:
			// The phase ended before a request reached the new epoch;
			// the next request is answered by it.
			rr, err := g.get(0)
			if err != nil {
				return 0, err
			}
			if rr.Epoch != seq {
				return 0, fmt.Errorf("epoch %d is promoted but a request was answered by epoch %d", seq, rr.Epoch)
			}
			return time.Since(placed), nil
		case <-time.After(time.Millisecond):
		}
	}
}

// closedResult is a closed-loop phase.
type closedResult struct {
	loadResult
	elapsed time.Duration
}

// closedLoop keeps every connection busy for dur, each sending its next
// request when the previous one is answered.
func (g *loadGen) closedLoop(dur time.Duration) closedResult {
	var res closedResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	phase := g.b.tr.begin("bench.load.capacity", 0)
	start := time.Now()
	end := start.Add(dur)
	for c := 0; c < g.conns; c++ {
		r := rand.New(rand.NewPCG(g.rng.Uint64(), uint64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				sent := time.Now()
				rr, err := g.get(int32(r.IntN(g.users)))
				g.b.tr.record("http.request", phase, sent, time.Now())
				mu.Lock()
				res.sent++
				if err != nil {
					res.errs++
				} else if g.checkEvery > 0 && res.sent%g.checkEvery == 0 {
					res.kept = append(res.kept, served{user: rr.User, epoch: rr.Epoch, items: rr.Items})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	g.b.tr.finish(phase)
	return res
}

func (b *bench) serveLayerMetrics(in *ratingInput, ds *nomad.Dataset, path string, build sample, late []float64, lowP50ms, overhead float64) error {
	b.layer("sparse.build_s", "s", build.median())
	var err error
	b.tr.timed("nomad.NewSession", 0, func(int64) {
		t := time.Now()
		_, err = nomad.NewSession(ds, nomad.WithRank(serveModelRank), nomad.WithWorkers(b.nproc))
		b.layer("nomad.new_session_s", "s", time.Since(t).Seconds())
	})
	if b.op(err) {
		return err
	}
	// The workload trains nothing; the core layer is timed on one short
	// Session.Run over its ratings, and its shares of serving work are 0.
	rec, err := b.trainOnce(ds, in, trainWorkload{spec: in.spec, k: serveModelRank, epochs: 2}, b.nproc, false, false, 0)
	if b.op(err) {
		return err
	}
	rates, epochs := sample{xs: rec.intervalRates()}, sample{xs: rec.epochs}
	b.layer("core.rate_p10_per_s", "1/s", rates.q(0.1))
	b.layer("core.epoch_s.p50", "s", epochs.median())
	b.layer("core.epoch_s.max", "s", epochs.max())
	for _, name := range []string{"vecmath.share", "queue.share", "netlink.share", "metrics.eval_share"} {
		b.layer(name, "ratio", 0)
	}
	b.layer("cluster.bytes_per_update", "B", 0)
	b.layer("cluster.messages_per_update", "count", 0)
	data, err := os.ReadFile(path)
	if b.op(err) {
		return err
	}
	md, loadS, err := b.loadFactor(data)
	if b.op(err) {
		return err
	}
	b.layer("factor.load_s", "s", loadS)
	if _, err := b.replayLayers(md, in.train, b.nproc); err != nil {
		return err
	}
	m, err := loadModel(path)
	if b.op(err) {
		return err
	}
	b.layer("metrics.rmse_eval_ms", "ms", b.rmseEvalMs(ds, m))

	sl, err := b.measureServeLayers(md, func(u int32) []int32 { return ds.RatedItems(int(u)) }, b.seed)
	if err != nil {
		return err
	}
	b.reportServeLayers(sl)
	lateS := sample{xs: late}
	b.layer("serve.late_ms.p99", "ms", lateS.q(0.99))
	// The part of a request's latency spent outside the handler:
	// transport and queueing.
	b.layer("core.unattributed_share", "ratio", 1-sl.handler.median()/1e3/lowP50ms)
	b.layer("trace.overhead_share", "ratio", overhead)
	return nil
}

func loadModel(path string) (*nomad.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	defer f.Close()
	m, err := nomad.LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("load model %s: %w", path, err)
	}
	return m, nil
}

// sameRecs reports whether served items equal Model.Recommend's, item
// for item and score for score.
func sameRecs(got []serve.RecItem, want []nomad.Recommendation) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i].Item) != want[i].Item || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}
