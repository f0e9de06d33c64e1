package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"

	"nomad"
	"nomad/internal/factor"
)

// ratingSpec shapes a synthetic rating matrix the way the repository's
// dataset profiles do: Zipf-skewed user and item degrees, ratings from
// rank-16 ground-truth factors plus Gaussian noise, optionally rounded
// onto a 1..5 star scale.
type ratingSpec struct {
	users, items, nnz int
	rowSkew, colSkew  float64
	quantize          bool
	testFrac          float64
}

// netflixSpec and longtailSpec scale the dataset package's netflix-like
// and longtail-like profiles (same full-size shapes and skews).
func netflixSpec(scale float64) ratingSpec {
	return ratingSpec{
		users: int(2_649_429 * scale), items: int(17_770 * scale), nnz: int(99_072_112 * scale),
		rowSkew: 0.9, colSkew: 0.9, quantize: true, testFrac: 0.1,
	}
}

func longtailSpec(scale float64) ratingSpec {
	return ratingSpec{
		users: int(80_000 * scale), items: int(600_000 * scale), nnz: int(2_700_000 * scale),
		rowSkew: 0.6, colSkew: 0.6, testFrac: 0.1,
	}
}

const truthRank = 16

// stopBlock is how many item tokens a training worker may take from its
// queues at once (the mesh's receive block). A worker that sees the
// stop finishes the block in hand.
const stopBlock = 64

// ratingInput is one workload's generated ratings.
type ratingInput struct {
	spec        ratingSpec
	train, test []nomad.Rating
	// itemPop is each item's sampling weight, the popularity the
	// serve model's item norms follow.
	itemPop []float64
	// blockWork bounds the updates one worker can still make after the
	// stop: the ratings of the stopBlock busiest item tokens.
	blockWork int
	digest    uint64
}

// genRatings draws the spec's ratings from seed. The same seed always
// gives the same ratings.
func genRatings(sp ratingSpec, seed uint64) *ratingInput {
	r := rand.New(rand.NewPCG(seed, 0x6e6f6d6164))
	rowW := zipfWeights(r, sp.users, sp.rowSkew)
	colW := zipfWeights(r, sp.items, sp.colSkew)
	rows, cols := newAlias(rowW), newAlias(colW)
	sd := 1 / math.Sqrt(math.Sqrt(truthRank)) // makes ⟨w,h⟩ unit-variance
	wt := normals(r, sp.users*truthRank, sd)
	ht := normals(r, sp.items*truthRank, sd)

	in := &ratingInput{spec: sp, itemPop: colW}
	in.train = make([]nomad.Rating, 0, sp.nnz)
	in.test = make([]nomad.Rating, 0, int(float64(sp.nnz)*sp.testFrac*1.1))
	seen := newKeySet(sp.nnz)
	deg := make([]int, sp.items)
	for n := 0; n < sp.nnz; {
		i, j := rows.sample(r), cols.sample(r)
		if !seen.add(uint64(i)*uint64(sp.items) + uint64(j)) {
			continue
		}
		n++
		var dot float64
		for l := 0; l < truthRank; l++ {
			dot += wt[i*truthRank+l] * ht[j*truthRank+l]
		}
		v := dot + 0.1*r.NormFloat64()
		if sp.quantize {
			v = math.Min(5, math.Max(1, math.Round(3+1.1*v)))
		}
		rt := nomad.Rating{User: i, Item: j, Value: v}
		if r.Float64() < sp.testFrac {
			in.test = append(in.test, rt)
		} else {
			in.train = append(in.train, rt)
			deg[j]++
		}
	}
	slices.SortFunc(deg, func(a, b int) int { return b - a })
	for _, d := range deg[:min(stopBlock, len(deg))] {
		in.blockWork += d
	}
	in.digest = digestRatings(in.train, digestRatings(in.test, 14695981039346656037))
	return in
}

// zipfWeights gives n entities Zipf(skew) weights in a random order.
func zipfWeights(r *rand.Rand, n int, skew float64) []float64 {
	w := make([]float64, n)
	for i, p := range r.Perm(n) {
		w[i] = math.Pow(float64(p+1), -skew)
	}
	return w
}

// alias is Vose's alias table: O(1) sampling from fixed weights.
type alias struct {
	prob  []float64
	other []int32
}

func newAlias(w []float64) *alias {
	n := len(w)
	a := &alias{prob: make([]float64, n), other: make([]int32, n)}
	var sum float64
	for _, x := range w {
		sum += x
	}
	small, large := make([]int32, 0, n), make([]int32, 0, n)
	for i, x := range w {
		a.prob[i] = x * float64(n) / sum
		if a.prob[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		a.other[s] = l
		a.prob[l] -= 1 - a.prob[s]
		if a.prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range append(small, large...) {
		a.prob[i] = 1
	}
	return a
}

func (a *alias) sample(r *rand.Rand) int {
	i := r.IntN(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.other[i])
}

func normals(r *rand.Rand, n int, sd float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = sd * r.NormFloat64()
	}
	return out
}

// keySet is an open-addressing set of matrix cells; a Go map of the
// same size takes most of the generation time.
type keySet struct {
	slots []uint64
	mask  uint64
}

func newKeySet(n int) *keySet {
	size := uint64(1)
	for size < uint64(2*n+1) {
		size <<= 1
	}
	return &keySet{slots: make([]uint64, size), mask: size - 1}
}

// add inserts key and reports whether it was new.
func (s *keySet) add(key uint64) bool {
	k := key + 1 // 0 marks an empty slot
	for h := (k * 0x9e3779b97f4a7c15) & s.mask; ; h = (h + 1) & s.mask {
		switch s.slots[h] {
		case 0:
			s.slots[h] = k
			return true
		case k:
			return false
		}
	}
}

// digestRatings folds ratings into a FNV-1a digest.
func digestRatings(rs []nomad.Rating, h uint64) uint64 {
	mix := func(v uint64) {
		for b := 0; b < 8; b++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, r := range rs {
		mix(uint64(r.User))
		mix(uint64(r.Item))
		mix(math.Float64bits(r.Value))
	}
	return h
}

// serveModelRank is the serving model's rank (the longtail profile's
// usual k).
const serveModelRank = 16

// synthServeModel builds a factor model shaped like a trained longtail
// model: user rows of unit-order norm and item rows whose norms follow
// item popularity, so that the index's norm-bound pruning skips most of
// the catalogue. variant perturbs the rows slightly, standing in for the
// next training epoch's checkpoint.
func synthServeModel(in *ratingInput, seed uint64, variant int) *factor.Model {
	m, n, k := in.spec.users, in.spec.items, serveModelRank
	r := rand.New(rand.NewPCG(seed, 0x7365727665+uint64(variant)))
	md := factor.New(m, n, k)
	w := md.WData()
	for i := range w {
		w[i] = 0.25 * r.NormFloat64()
	}
	popMax := 0.0
	for _, p := range in.itemPop {
		popMax = max(popMax, p)
	}
	h := md.HData()
	for j := 0; j < n; j++ {
		row := h[j*k : (j+1)*k]
		var ss float64
		for l := range row {
			row[l] = r.NormFloat64()
			ss += row[l] * row[l]
		}
		norm := 0.1 + math.Pow(in.itemPop[j]/popMax, 0.22)
		scale := norm / math.Sqrt(ss)
		for l := range row {
			row[l] *= scale
		}
	}
	return md
}

// writeModel stores md in the factor binary format at path.
func writeModel(path string, md *factor.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write model: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := md.WriteBinary(w); err != nil {
		f.Close()
		return fmt.Errorf("write model: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write model: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write model: %w", err)
	}
	return nil
}
