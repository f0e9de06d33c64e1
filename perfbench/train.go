package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"nomad"
)

// trainWorkload is one training workload: a rating shape, a rank and a
// fixed amount of work per Session.Run.
type trainWorkload struct {
	spec   ratingSpec
	k      int
	epochs int
	// targetWork > 0 reports time_to_rmse_s: the time the measured run
	// takes to reach the test RMSE that the first single-worker run
	// reached after this share of the work. The target thus
	// follows each seed's data, whose attainable RMSE varies. 0 means
	// the workload has no meaningful target (its test RMSE rises).
	targetWork float64
	// maxFitRMSE caps the first single-worker model's RMSE on its own
	// training ratings. It guards quality on both shapes, including
	// longtail, where the test RMSE rises while the model fits, so that
	// a kernel that stops learning fails the run however fast it is.
	maxFitRMSE float64
	// rmseBound is how far the nproc-worker runs' final test RMSE may
	// lie from the single-worker run's before the run counts as
	// incorrect.
	rmseBound float64
	// singleWorker makes single-worker runs the measured ones: they
	// repeat for the whole measuring time and give the gated metrics,
	// while nproc-worker runs are made only in the first repetitions,
	// for the scaling efficiency and the RMSE check. A transport-bound
	// shape needs it: there nproc workers spin on each other's queues
	// beside the monitor, so their rate follows the host's scheduler
	// more than the program.
	singleWorker bool
}

// evalPoints is how many RMSE samples each Session.Run takes; they
// give the steady window and the time to the RMSE target.
const evalPoints = 20

// runRecord is what one Session.Run produced.
type runRecord struct {
	workers int
	wall    time.Duration
	res     *nomad.Result
	epochs  []float64 // seconds of each epoch, from the trace samples
	evals   int       // TraceEvents seen (one RMSE evaluation each)
}

// steadyRate is updates/s between the trace samples that bracket the
// middle 80% of the update budget, excluding start-up and the drain.
func (r runRecord) steadyRate() float64 {
	tr := r.res.Trace
	total := float64(r.res.Updates)
	a, b := -1, -1
	for i, p := range tr {
		u := float64(p.Updates)
		if a < 0 && u >= 0.1*total {
			a = i
		}
		if u <= 0.9*total {
			b = i
		}
	}
	if a < 0 || b <= a || tr[b].Seconds <= tr[a].Seconds {
		return float64(r.res.Updates) / r.res.Seconds
	}
	return float64(tr[b].Updates-tr[a].Updates) / (tr[b].Seconds - tr[a].Seconds)
}

// epochTimes splits the run into its epochs by update count and times
// each from the trace samples (taken by the training monitor, so no
// event delivery delay is included), interpolating between samples.
func epochTimes(res *nomad.Result, epochs int) []float64 {
	tr := res.Trace
	at := func(u float64) float64 {
		for i := 1; i < len(tr); i++ {
			a, b := tr[i-1], tr[i]
			if float64(b.Updates) >= u && b.Updates > a.Updates {
				return a.Seconds + (b.Seconds-a.Seconds)*(u-float64(a.Updates))/float64(b.Updates-a.Updates)
			}
		}
		return res.Seconds
	}
	out := make([]float64, epochs)
	prev := 0.0
	for e := range out {
		t := at(float64(e+1) / float64(epochs) * float64(res.Updates))
		out[e] = t - prev
		prev = t
	}
	return out
}

// intervalRates is the updates/s between consecutive trace samples.
func (r runRecord) intervalRates() []float64 {
	var out []float64
	tr := r.res.Trace
	for i := 1; i < len(tr); i++ {
		if dt := tr[i].Seconds - tr[i-1].Seconds; dt > 0 && tr[i].Updates > tr[i-1].Updates {
			out = append(out, float64(tr[i].Updates-tr[i-1].Updates)/dt)
		}
	}
	return out
}

// rmseAt is the test RMSE after the given share of the run's updates,
// interpolated between trace samples.
func (r runRecord) rmseAt(share float64) float64 {
	tr := r.res.Trace
	u := share * float64(r.res.Updates)
	for i := 1; i < len(tr); i++ {
		a, b := tr[i-1], tr[i]
		if float64(b.Updates) >= u && b.Updates > a.Updates {
			return a.RMSE + (b.RMSE-a.RMSE)*(u-float64(a.Updates))/float64(b.Updates-a.Updates)
		}
	}
	return r.res.TestRMSE
}

// timeTo is the run time at which the test RMSE first reached target,
// interpolated between the two trace samples around the crossing.
func (r runRecord) timeTo(target float64) (float64, bool) {
	tr := r.res.Trace
	for i, p := range tr {
		if p.RMSE > target {
			continue
		}
		if i == 0 {
			return p.Seconds, true
		}
		q := tr[i-1]
		return q.Seconds + (q.RMSE-target)/(q.RMSE-p.RMSE)*(p.Seconds-q.Seconds), true
	}
	return 0, false
}

// tcpMachines is the size of the TCP loopback cluster the traced runs
// measure the cluster and netlink layers on, one worker per machine.
const tcpMachines = 2

// trainOnce performs one Session.Run of the workload with the given
// workers, or with one worker on each machine of a TCP loopback
// cluster, and checks its fixed work. The trained model is kept in the
// record only when keepModel is set.
func (b *bench) trainOnce(ds *nomad.Dataset, in *ratingInput, w trainWorkload, workers int, tcp, keepModel bool, parent int64) (runRecord, error) {
	opts := []nomad.Option{
		nomad.WithRank(w.k),
		nomad.WithWorkers(workers),
		nomad.WithSeed(b.seed),
		nomad.WithEvalPoints(evalPoints),
		nomad.WithStopConditions(nomad.MaxEpochs(w.epochs)),
	}
	if tcp {
		opts = append(opts, nomad.WithCluster(tcpMachines, "tcp"))
	}
	var sess *nomad.Session
	var err error
	b.tr.timed("nomad.NewSession", parent, func(int64) { sess, err = nomad.NewSession(ds, opts...) })
	if err != nil {
		return runRecord{}, fmt.Errorf("new session: %w", err)
	}
	// The buffer holds every event of a run, so none is dropped.
	events, cancel := sess.Subscribe(4 * (evalPoints + w.epochs + 16))
	rec := runRecord{workers: workers}
	kind := fmt.Sprintf("%d workers", workers)
	if tcp {
		rec.workers = tcpMachines
		kind = fmt.Sprintf("%d machines x 1 worker over TCP", tcpMachines)
	}
	// Each run starts from a collected heap with the free pages given
	// back, so neither its time nor the peak RSS depends on the garbage
	// of the runs before it.
	debug.FreeOSMemory()
	runID := b.tr.begin("nomad.Session.Run", parent)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range events {
			now := time.Now()
			switch e.(type) {
			case nomad.TraceEvent:
				rec.evals++
				b.tr.mark("core.TraceEvent", runID, now)
			case nomad.EpochEvent:
				b.tr.mark("core.EpochEvent", runID, now)
			case nomad.NetworkEvent:
				b.tr.mark("cluster.NetworkEvent", runID, now)
			}
		}
	}()
	res, err := sess.Run(context.Background())
	rec.wall = time.Since(start)
	b.tr.finish(runID)
	cancel()
	<-done
	if err != nil {
		return rec, fmt.Errorf("run: %w", err)
	}
	rec.res = res
	// Holding every trained model would make peak RSS depend on how many
	// runs fit in the measuring time.
	if !keepModel {
		res.Model = nil
	}
	rec.epochs = epochTimes(res, w.epochs)
	// The workers see the budget run out at a counter flush (every 256
	// updates) and then finish the block of tokens in hand, so each may
	// overshoot the budget by that much.
	want := int64(w.epochs) * int64(len(in.train))
	slack := int64(rec.workers) * int64(256+in.blockWork)
	b.check(res.Updates >= want && res.Updates <= want+slack,
		"%s: Result.Updates %d outside the fixed work [%d, %d]", kind, res.Updates, want, want+slack)
	return rec, nil
}

// singleRuns is how many repetitions of a training workload make both a
// single-worker and an nproc-worker run. Single-worker final RMSE must
// repeat exactly; those runs also give the scaling efficiency's base and
// the time_to_rmse_s target. Every later repetition is one run of the
// measured kind (see trainWorkload.singleWorker).
const singleRuns = 2

// runTrain measures a training workload: set-up, then repetitions until
// the measuring time is spent, the first ones each a single-worker run
// followed by an nproc-worker run.
func (b *bench) runTrain(w trainWorkload) error {
	in := genRatings(w.spec, b.seed)
	b.info("input_digest", fmt.Sprintf("%016x", in.digest))
	b.info("input_shape", fmt.Sprintf("%d users x %d items, %d train / %d test ratings, k=%d",
		w.spec.users, w.spec.items, len(in.train), len(in.test), w.k))

	ds, setup, err := b.trainSetup(in, w)
	if err != nil {
		return err
	}

	var single, multi []runRecord
	measureStart := time.Now()
	for rep := 0; ; rep++ {
		// In a traced run every other repetition records spans, and the
		// untraced ones give the tracing overhead.
		b.tr.on.Store(b.trace && rep%2 == 1)
		repStart := time.Now()
		id := b.tr.begin("bench.rep", 0)
		if rep < singleRuns || w.singleWorker {
			r1, err := b.trainOnce(ds, in, w, 1, false, rep == 0 || (b.trace && w.singleWorker), id)
			if b.op(err) {
				return err
			}
			if rep == 0 {
				fit := fitRMSE(r1.res.Model, in.train)
				b.info("final_train_rmse", fmt.Sprintf("%.6f (single worker, limit %g)", fit, w.maxFitRMSE))
				b.check(fit <= w.maxFitRMSE, "single-worker RMSE %.6f on the training ratings exceeds %g", fit, w.maxFitRMSE)
				if !(b.trace && w.singleWorker) {
					r1.res.Model = nil
				}
			}
			single = append(single, r1)
		}
		if rep < singleRuns || !w.singleWorker {
			rn, err := b.trainOnce(ds, in, w, b.nproc, false, b.trace && !w.singleWorker, id)
			if b.op(err) {
				return err
			}
			multi = append(multi, rn)
		}
		b.tr.finish(id)
		// The per-layer replays of a traced run use the last measured
		// model; earlier ones are let go.
		measured := measuredRuns(w, single, multi)
		if len(measured) > 1 {
			measured[len(measured)-2].res.Model = nil
		}
		// Stop when another repetition like this one would overrun. A
		// traced run needs a traced and an untraced repetition.
		if rep >= singleRuns-1 && time.Since(measureStart)+time.Since(repStart) > b.budget {
			break
		}
	}
	b.tr.on.Store(b.trace)

	b.trainChecks(w, single, multi)
	b.trainMetrics(w, setup, single, multi)
	if b.trace {
		return b.trainLayers(ds, in, w, setup, measuredRuns(w, single, multi))
	}
	return nil
}

// measuredRuns are the runs that give a workload's gated metrics, one
// per repetition.
func measuredRuns(w trainWorkload, single, multi []runRecord) []runRecord {
	if w.singleWorker {
		return single
	}
	return multi
}

// setupTimes holds the set-up durations (seconds), one per repetition.
type setupTimes struct{ build, session, total sample }

// setupReps is how many times set-up is repeated at least; setup_s is
// the median.
const setupReps = 5

// A training set-up is repeated until setupMinTime has passed, at most
// setupMaxReps times, so that a set-up of a few milliseconds still gives
// a steady median.
const (
	setupMinTime = 500 * time.Millisecond
	setupMaxReps = 200
)

func (b *bench) trainSetup(in *ratingInput, w trainWorkload) (*nomad.Dataset, setupTimes, error) {
	var st setupTimes
	var ds *nomad.Dataset
	first := time.Now()
	for i := 0; i < setupReps || (i < setupMaxReps && time.Since(first) < setupMinTime); i++ {
		ds = nil
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		debug.FreeOSMemory()
		id := b.tr.begin("bench.setup", 0)
		t0 := time.Now()
		var err error
		b.tr.timed("sparse.NewDataset", id, func(int64) {
			ds, err = nomad.NewDataset(w.spec.users, w.spec.items, in.train, in.test)
		})
		if b.op(err) {
			return nil, st, fmt.Errorf("new dataset: %w", err)
		}
		t1 := time.Now()
		opts := []nomad.Option{nomad.WithRank(w.k), nomad.WithWorkers(b.nproc), nomad.WithSeed(b.seed),
			nomad.WithStopConditions(nomad.MaxEpochs(w.epochs))}
		b.tr.timed("nomad.NewSession", id, func(int64) { _, err = nomad.NewSession(ds, opts...) })
		if b.op(err) {
			return nil, st, fmt.Errorf("new session: %w", err)
		}
		t2 := time.Now()
		b.tr.finish(id)
		st.build.addDur(t1.Sub(t0))
		st.session.addDur(t2.Sub(t1))
		st.total.addDur(t2.Sub(t0))
	}
	return ds, st, nil
}

// trainChecks verifies determinism and quality across the runs.
func (b *bench) trainChecks(w trainWorkload, single, multi []runRecord) {
	ref := single[0].res.TestRMSE
	for i, r := range single[1:] {
		b.check(r.res.TestRMSE == ref,
			"single-worker run %d: final test RMSE %.17g differs from the first run's %.17g", i+2, r.res.TestRMSE, ref)
	}
	target := single[0].rmseAt(w.targetWork)
	for i, r := range multi {
		b.check(math.Abs(r.res.TestRMSE-ref) <= w.rmseBound,
			"%d-worker run %d: final test RMSE %.6f is more than %.3f from the single-worker %.6f",
			r.workers, i+1, r.res.TestRMSE, w.rmseBound, ref)
		if w.targetWork > 0 {
			_, ok := r.timeTo(target)
			b.check(ok, "%d-worker run %d never reached test RMSE %.4f (final %.6f)", r.workers, i+1, target, r.res.TestRMSE)
		}
	}
}

func (b *bench) trainMetrics(w trainWorkload, setup setupTimes, single, multi []runRecord) {
	var rate1, rateN, rate, ttr, wall, epochMean, epochMax, rmse sample
	for _, r := range single {
		rate1.add(r.steadyRate())
	}
	for _, r := range multi {
		rateN.add(r.steadyRate())
		rmse.add(r.res.TestRMSE)
	}
	target := single[0].rmseAt(w.targetWork)
	measured := measuredRuns(w, single, multi)
	for _, r := range measured {
		rate.add(r.steadyRate())
		wall.add(r.wall.Seconds())
		if t, ok := r.timeTo(target); ok && w.targetWork > 0 {
			ttr.add(t)
		}
		ep := sample{xs: r.epochs}
		epochMean.add(ep.mean())
		epochMax.add(ep.max())
	}
	b.e2e("setup_s", "s", setup.total.median())
	b.info("measured_runs", fmt.Sprintf("%d runs of %d workers each", len(measured), measured[0].workers))
	b.e2e("throughput_per_s", "1/s", rate.median())
	b.e2e("time_to_result_s", "s", wall.median())
	if w.targetWork > 0 {
		b.info("time_to_rmse_s", fmt.Sprintf("%.6g s (target %.4f: single-worker RMSE at %g of the work; %d runs)",
			ttr.median(), target, w.targetWork, ttr.n()))
	}
	// The host runs a worker at one of two speeds, switching every
	// tenth of a second or so, so a run's median epoch jumps between
	// them while its mean follows the share of time at each. The
	// gated epoch time is thus the median over runs of each run's mean
	// epoch; core.epoch_s.p50 keeps the per-epoch median.
	b.e2e("latency_p50_ms", "ms", 1e3*epochMean.median())
	b.info("slowest_epoch_ms", fmt.Sprintf("%.6g ms (median over runs of each run's slowest epoch)", 1e3*epochMax.median()))

	b.info("train_updates_per_s", fmt.Sprintf("%.6g 1/s (%d workers, median of %d runs)", rateN.median(), multi[0].workers, rateN.n()))
	b.info("train_updates_per_s.p1", fmt.Sprintf("%.6g 1/s (median of %d runs)", rate1.median(), rate1.n()))
	b.info("final_test_rmse", fmt.Sprintf("%.6f (%d workers; single worker %.6f)", rmse.median(), multi[0].workers, single[0].res.TestRMSE))
	var traj []string
	for _, p := range measured[len(measured)-1].res.Trace {
		traj = append(traj, fmt.Sprintf("%.2fs:%.4f", p.Seconds, p.RMSE))
	}
	b.info("rmse_trajectory", strings.Join(traj, " "))
	b.info("scaling_efficiency", fmt.Sprintf("%.4f (median %d-worker rate over %d x the median single-worker rate)",
		rateN.median()/(float64(multi[0].workers)*rate1.median()), multi[0].workers, multi[0].workers))
}

// fitRMSE is m's RMSE on the ratings it was trained on.
func fitRMSE(m *nomad.Model, train []nomad.Rating) float64 {
	var ss float64
	for _, r := range train {
		d := m.Predict(r.User, r.Item) - r.Value
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(train)))
}

// sortedByItem returns the training ratings in item order, the order a
// token-owning worker visits them.
func sortedByItem(rs []nomad.Rating) []nomad.Rating {
	out := append([]nomad.Rating(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Item != out[j].Item {
			return out[i].Item < out[j].Item
		}
		return out[i].User < out[j].User
	})
	return out
}
