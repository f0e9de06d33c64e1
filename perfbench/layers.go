package main

// Per-layer measurements, taken from outside the program: each times
// calls into one layer's public functions on the workload's own inputs,
// so the numbers need no counters inside the code under test.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nomad"
	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/netlink"
	"nomad/internal/queue"
	"nomad/internal/serve"
	"nomad/internal/topn"
	"nomad/internal/vecmath"
)

// replayTime bounds each timed replay loop.
const replayTime = 300 * time.Millisecond

// wireBatch is the tokens per network message the replays encode: the
// training configuration's default BatchSize.
const wireBatch = 100

// stepNs replays vecmath.KernelFor(k).Step over the ratings in item
// order, as an item-token owner visits them, and returns ns per step.
func stepNs(md *factor.Model, byItem []nomad.Rating) float64 {
	k := md.K
	kern := vecmath.KernelFor(k)
	w, h := md.WData(), md.HData()
	start := time.Now()
	n := 0
	for time.Since(start) < replayTime {
		for i := 0; i < 4096; i++ {
			r := byItem[n%len(byItem)]
			kern.Step(w[r.User*k:(r.User+1)*k], h[r.Item*k:(r.Item+1)*k], r.Value, 1e-4, 0.05)
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// queueNsPerToken circulates n item tokens among p endpoints of a
// queue.Mesh the way the shared-memory workers do (RecvBatch a block,
// route each token to a random endpoint, SendBatch per destination) and
// returns worker nanoseconds per token move.
func queueNsPerToken(n, p int, seed uint64) float64 {
	const block = 64
	m := queue.NewMesh[int32](p, 2*n/(p*p)+4*block)
	for j := 0; j < n; j++ {
		m.Send(j%p, j%p, int32(j))
	}
	var stop atomic.Bool
	var moves atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for d := 0; d < p; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, uint64(d)))
			in := make([]int32, block)
			out := make([][]int32, p)
			flush := func(dst int) {
				sent := m.SendBatch(d, dst, out[dst])
				out[dst] = append(out[dst][:0], out[dst][sent:]...)
			}
			var local int64
			for !stop.Load() {
				got := m.RecvBatch(d, in)
				if got == 0 {
					for dst := range out {
						flush(dst)
					}
					runtime.Gosched()
					continue
				}
				for _, tok := range in[:got] {
					dst := r.IntN(p)
					out[dst] = append(out[dst], tok)
					if len(out[dst]) >= block {
						flush(dst)
					}
				}
				local += int64(got)
			}
			moves.Add(local)
		}(d)
	}
	time.Sleep(replayTime)
	stop.Store(true)
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) * float64(p) / float64(moves.Load())
}

// netlinkNsPerToken replays the token wire codec at rank k: encoding a
// wireBatch-token frame with AppendTokenFrame, and reading it back with
// ReadFrameReuse + DecodeTokenBatchInto. It reports ns per token each
// way and whether the decoded tokens equal the encoded ones.
func netlinkNsPerToken(md *factor.Model) (enc, dec float64, same bool, err error) {
	k := md.K
	batch := cluster.TokenBatch{Tokens: make([]cluster.Token, wireBatch)}
	for i := range batch.Tokens {
		j := (i * 7919) % md.N
		batch.Tokens[i] = cluster.Token{Item: int32(j), Vec: md.ItemRow(j)}
	}
	var frame []byte
	n := 0
	start := time.Now()
	for time.Since(start) < replayTime/2 {
		for i := 0; i < 64; i++ {
			if frame, err = netlink.AppendTokenFrame(frame[:0], 0, batch, k); err != nil {
				return 0, 0, false, fmt.Errorf("encode: %w", err)
			}
			n++
		}
	}
	enc = float64(time.Since(start).Nanoseconds()) / float64(n*wireBatch)

	rd := bytes.NewReader(frame)
	bb := cluster.NewBatchBuf()
	var rbuf []byte
	var got cluster.TokenBatch
	n = 0
	start = time.Now()
	for time.Since(start) < replayTime/2 {
		for i := 0; i < 64; i++ {
			rd.Reset(frame)
			var f netlink.Frame
			if f, rbuf, err = netlink.ReadFrameReuse(rd, rbuf); err != nil {
				return 0, 0, false, fmt.Errorf("read frame: %w", err)
			}
			if got, err = netlink.DecodeTokenBatchInto(f.Payload, k, bb); err != nil {
				return 0, 0, false, fmt.Errorf("decode: %w", err)
			}
			n++
		}
	}
	dec = float64(time.Since(start).Nanoseconds()) / float64(n*wireBatch)
	same = len(got.Tokens) == len(batch.Tokens)
	for i := 0; same && i < len(got.Tokens); i++ {
		same = got.Tokens[i].Item == batch.Tokens[i].Item && slices.Equal(got.Tokens[i].Vec, batch.Tokens[i].Vec)
	}
	return enc, dec, same, nil
}

// replays are the per-operation costs of the kernel, the token queue
// and the wire codec, replayed on one model and its ratings.
type replays struct{ step, queue, encode, decode float64 }

// replayLayers times the vecmath, queue and netlink replays on md, the
// ratings it was trained on and p queue endpoints, and reports them.
func (b *bench) replayLayers(md *factor.Model, train []nomad.Rating, p int) (replays, error) {
	var rp replays
	b.tr.timed("vecmath.Kernel.Step", 0, func(int64) { rp.step = stepNs(md, sortedByItem(train)) })
	b.tr.timed("queue.Mesh", 0, func(int64) { rp.queue = queueNsPerToken(md.N, p, b.seed) })
	var same bool
	var err error
	b.tr.timed("netlink.codec", 0, func(int64) { rp.encode, rp.decode, same, err = netlinkNsPerToken(md) })
	if b.op(err) {
		return rp, err
	}
	b.check(same, "netlink: decoded tokens differ from the encoded ones")
	b.layer("vecmath.step_ns", "ns", rp.step)
	b.layer("queue.ns_per_token", "ns", rp.queue)
	b.layer("netlink.encode_ns_per_token", "ns", rp.encode)
	b.layer("netlink.decode_ns_per_token", "ns", rp.decode)
	return rp, nil
}

// serveLayers are the direct measurements of the serving layers on one
// model.
type serveLayers struct {
	buildIndex       sample // seconds
	topn, handler    sample // microseconds
	scanned, pruned  int64
	queries, catalog int
}

// serveQueries is how many users the direct TopN and handler replays
// query; 200 or more puts ten samples beyond the 95th percentile.
const serveQueries = 240

// measureServeLayers times serve.BuildIndex, Index.TopN and the
// Server's handler (no socket) on md, for users drawn from seed.
func (b *bench) measureServeLayers(md *factor.Model, rated func(int32) []int32, seed uint64) (serveLayers, error) {
	var sl serveLayers
	var ix *serve.Index
	for i := 0; i < 2; i++ {
		ix = nil
		b.tr.timed("serve.BuildIndex", 0, func(int64) {
			t := time.Now()
			ix = serve.BuildIndex(md, nil)
			sl.buildIndex.addDur(time.Since(t))
		})
	}
	r := rand.New(rand.NewPCG(seed, 0x746f706e))
	users := make([]int32, serveQueries)
	for i := range users {
		users[i] = int32(r.IntN(md.M))
	}
	sl.queries, sl.catalog = len(users), ix.Len()
	h := topn.NewHeap(serveTopN)
	parent := b.tr.begin("bench.topn", 0)
	for _, u := range users {
		t := time.Now()
		h.Reset(serveTopN)
		st := ix.TopN(md.UserRow(int(u)), nil, md.UserNorm(int(u)), rated(u), h)
		d := time.Since(t)
		b.tr.record("serve.Index.TopN", parent, t, t.Add(d))
		sl.topn.add(float64(d.Nanoseconds()) / 1e3)
		sl.scanned += int64(st.Scanned)
		sl.pruned += int64(st.Pruned)
	}
	b.tr.finish(parent)

	store := serve.NewStore()
	store.Promote(&serve.Epoch{Seq: 1, Model: md, Index: ix})
	handler := serve.NewServer(serve.Config{Store: store, Rated: rated}).Handler()
	parent = b.tr.begin("bench.handler", 0)
	for _, u := range users {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/recommend?user=%d&n=%d", u, serveTopN), nil)
		rec := httptest.NewRecorder()
		t := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(t)
		b.tr.record("serve.Server.Handler", parent, t, t.Add(d))
		if b.op(httpStatusErr(rec.Code)) {
			return sl, fmt.Errorf("handler: status %d", rec.Code)
		}
		sl.handler.add(float64(d.Nanoseconds()) / 1e3)
	}
	b.tr.finish(parent)
	return sl, nil
}

func httpStatusErr(code int) error {
	if code != http.StatusOK {
		return fmt.Errorf("HTTP status %d", code)
	}
	return nil
}

func (b *bench) reportServeLayers(sl serveLayers) {
	b.layer("serve.build_index_s", "s", sl.buildIndex.median())
	b.layer("serve.topn_us.p50", "us", sl.topn.median())
	b.layer("serve.topn_us.p95", "us", sl.topn.q(0.95))
	b.layer("serve.scanned_per_query", "count", float64(sl.scanned)/float64(sl.queries))
	b.layer("serve.prune_ratio", "ratio", float64(sl.pruned)/float64(int64(sl.queries)*int64(sl.catalog)))
	b.layer("serve.handler_us.p50", "us", sl.handler.median())
	b.layer("serve.handler_us.p95", "us", sl.handler.q(0.95))
}

// loadFactor decodes a saved model with factor.ReadBinary and returns
// the model and the decode time.
func (b *bench) loadFactor(data []byte) (*factor.Model, float64, error) {
	var md *factor.Model
	var err error
	var secs float64
	b.tr.timed("factor.ReadBinary", 0, func(int64) {
		t := time.Now()
		md, err = factor.ReadBinary(bytes.NewReader(data))
		secs = time.Since(t).Seconds()
	})
	return md, secs, err
}

// rmseEvalMs times Dataset.RMSE, the evaluation the training monitor
// runs at every trace sample.
func (b *bench) rmseEvalMs(ds *nomad.Dataset, m *nomad.Model) float64 {
	var s sample
	for i := 0; i < 3; i++ {
		b.tr.timed("metrics.RMSE", 0, func(int64) {
			t := time.Now()
			ds.RMSE(m)
			s.add(float64(time.Since(t).Nanoseconds()) / 1e6)
		})
	}
	return s.median()
}

// tcpEpochs is the length of the TCP run a traced training run makes.
const tcpEpochs = 4

// trainLayers reports the per-layer metrics of a training workload from
// its measured runs. Shares are estimates of those runs' worker time
// (workers × run time), netlink.share of the TCP run's; they are priced
// from replays in isolation, so their sum can exceed 1.
func (b *bench) trainLayers(ds *nomad.Dataset, in *ratingInput, w trainWorkload, setup setupTimes, runs []runRecord) error {
	b.layer("sparse.build_s", "s", setup.build.median())
	b.layer("nomad.new_session_s", "s", setup.session.median())

	var rates, epochs, updPerS, evalsPerS, traced, untraced sample
	for i, r := range runs {
		for _, x := range r.intervalRates() {
			rates.add(x)
		}
		for _, x := range r.epochs {
			epochs.add(x)
		}
		updPerS.add(float64(r.res.Updates) / r.res.Seconds)
		evalsPerS.add(float64(r.evals) / r.res.Seconds)
		if i%2 == 1 {
			traced.add(r.steadyRate())
		} else {
			untraced.add(r.steadyRate())
		}
	}
	b.layer("core.rate_p10_per_s", "1/s", rates.q(0.1))
	b.layer("core.epoch_s.p50", "s", epochs.median())
	b.layer("core.epoch_s.max", "s", epochs.max())
	b.layer("trace.overhead_share", "ratio", untraced.median()/traced.median()-1)

	last := runs[len(runs)-1]
	p := float64(last.workers)
	ups := updPerS.median()

	var saved bytes.Buffer
	if err := last.res.Model.Save(&saved); b.op(err) {
		return fmt.Errorf("save model: %w", err)
	}
	md, loadS, err := b.loadFactor(saved.Bytes())
	if b.op(err) {
		return fmt.Errorf("load model: %w", err)
	}
	b.layer("factor.load_s", "s", loadS)

	rp, err := b.replayLayers(md, in.train, int(p))
	if err != nil {
		return err
	}
	vecShare := rp.step * 1e-9 * ups / p
	b.layer("vecmath.share", "ratio", vecShare)
	// Each token visit runs the item's ratings held by one of p workers.
	movesPerS := ups * float64(w.spec.items) * p / float64(len(in.train))
	qShare := rp.queue * 1e-9 * movesPerS / p
	b.layer("queue.share", "ratio", qShare)

	evalMs := b.rmseEvalMs(ds, last.res.Model)
	evalShare := evalMs * 1e-3 * evalsPerS.median() / p
	b.layer("metrics.rmse_eval_ms", "ms", evalMs)
	b.layer("metrics.eval_share", "ratio", evalShare)
	b.layer("core.unattributed_share", "ratio", 1-(vecShare+qShare+evalShare))

	// The cluster and netlink layers, on a short run of the same inputs
	// over a TCP loopback cluster: its wire counts are exact, and its
	// token rate prices the codec.
	tw := w
	tw.epochs = tcpEpochs
	var tcpRun runRecord
	b.tr.timed("cluster.tcp_run", 0, func(id int64) { tcpRun, err = b.trainOnce(ds, in, tw, 1, true, false, id) })
	if b.op(err) {
		return err
	}
	res := tcpRun.res
	bytesPerUpd := float64(res.BytesSent) / float64(res.Updates)
	msgsPerUpd := float64(res.MessagesSent) / float64(res.Updates)
	tcpUps := float64(res.Updates) / res.Seconds
	b.layer("cluster.bytes_per_update", "B", bytesPerUpd)
	b.layer("cluster.messages_per_update", "count", msgsPerUpd)
	b.info("cluster.tcp_run", fmt.Sprintf("%.6g updates/s, %.6g updates/message (%d machines x 1 worker, %d epochs)",
		tcpUps, 1/msgsPerUpd, tcpMachines, tcpEpochs))

	// Wire bytes per token: item id plus k float64 coordinates. The
	// share is of the TCP run's worker time.
	tokensPerS := bytesPerUpd * tcpUps / float64(4+8*w.k)
	b.layer("netlink.share", "ratio", (rp.encode+rp.decode)*1e-9*tokensPerS/tcpMachines)

	// The serving layers on the model this workload just trained.
	sl, err := b.measureServeLayers(md, func(u int32) []int32 { return ds.RatedItems(int(u)) }, b.seed)
	if err != nil {
		return err
	}
	b.reportServeLayers(sl)
	late, err := b.generatorLateMs(md, ds)
	if err != nil {
		return err
	}
	b.layer("serve.late_ms.p99", "ms", late)
	return nil
}

// generatorLateMs serves md over loopback HTTP for one second of
// open-loop load at the low rate and returns how late the generator ran
// (p99, ms): the serve-longtail validity measure, on a training
// workload's model.
func (b *bench) generatorLateMs(md *factor.Model, ds *nomad.Dataset) (float64, error) {
	var ix *serve.Index
	b.tr.timed("serve.BuildIndex", 0, func(int64) { ix = serve.BuildIndex(md, nil) })
	srv, err := startServer(&serve.Epoch{Seq: 1, Model: md, Index: ix}, ds)
	if b.op(err) {
		return 0, err
	}
	defer srv.stop()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}}
	defer client.CloseIdleConnections()
	if err := waitHealthy(client, srv.url); b.op(err) {
		return 0, err
	}
	g := &loadGen{b: b, client: client, url: srv.url, conns: b.nproc, users: md.M,
		rng: rand.New(rand.NewPCG(b.seed, 0x6c617465)), firstSeen: make(map[uint64]time.Time)}
	res := g.run("late", lowQPS, time.Second, nil)
	b.attempted += res.sent
	b.failed += res.errs
	return res.late.q(0.99), nil
}
