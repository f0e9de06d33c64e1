package vecmath

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"nomad/internal/rng"
)

// Equivalence of the assembly kernels against the reference
// implementations, to the documented tolerances.
//
// Error model. The asm kernels differ from the references in exactly
// two ways: the dot product reassociates its sum (multi-accumulator
// blocks), and every multiply-add is fused (one rounding instead of
// two). Both are covered by standard forward-error analysis:
//
//   - dot: either ordering has forward error ≤ n·u·Σ|aᵢbᵢ| (Higham
//     §4.2; FMA strictly tightens it), so reference and asm differ by
//     at most 2·n·u·Σ|aᵢbᵢ| — the same dotTolerance the portable
//     kernels are held to. u = 2⁻⁵³ (f64) or 2⁻²⁴ (f32).
//   - update: w′ = w + sg·h − sl·w evaluated with two roundings (Go)
//     vs fused (asm) differs by at most a few u of the intermediate
//     magnitudes, ≤ C·u·(|w| + |sg·h| + |sl·w|) with C = 8 giving
//     comfortable headroom; add the residual-difference term
//     step·δe·|partner| when e itself came from the dot.
//
// Non-finite inputs (±Inf, NaN) can turn into NaN differently under
// reassociation (∞ − ∞ appears in one order but not another), so for
// those the contract is class equivalence: reference non-finite ⇔ asm
// non-finite. Subnormals get absolute slack of a few
// math.SmallestNonzeroFloat64 on top of the relative bound, since
// flush-free FMA keeps subnormal products the separate rounding loses.
//
// These tests pass trivially (skip) off amd64 or on amd64 hardware
// without AVX2+FMA — CI's cross-compile matrix only builds there, and
// the NOMAD_NO_SIMD test pass covers the fallback dispatch on hardware
// that has the features.

// forceSIMD pins dispatch to the assembly kernels for one test
// (clearing reference mode, which would shadow them), skipping when
// the hardware cannot run them.
func forceSIMD(t *testing.T) {
	t.Helper()
	if !SIMDAvailable() {
		t.Skip("no AVX2/FMA on this machine")
	}
	oldRef, oldSIMD := ReferenceOnly(), SIMDEnabled()
	SetReferenceOnly(false)
	SetSIMD(true)
	t.Cleanup(func() { SetReferenceOnly(oldRef); SetSIMD(oldSIMD) })
}

// asmLengths covers every asm loop boundary: the 16/32-wide blocks, the
// 4/8-wide mid loops, the scalar tails, and off-by-ones around each.
var asmLengths = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20, 31, 32, 33, 48, 63, 64, 100, 129}

// updTolerance is the fused-vs-separate rounding bound for one updated
// element (see the error model above).
func updTolerance(w, partner, sg, sl float64) float64 {
	const u, c = 0x1p-53, 8
	return c * u * (math.Abs(w) + math.Abs(sg*partner) + math.Abs(sl*w))
}

func TestSIMDDotMatchesReference(t *testing.T) {
	forceSIMD(t)
	r := rng.New(41)
	for _, n := range asmLengths {
		kern := KernelFor(n)
		for trial := 0; trial < 100; trial++ {
			a := make([]float64, n)
			b := make([]float64, n)
			fill(r, a)
			fill(r, b)
			want := Dot(a, b)
			got := kern.Dot(a, b)
			if tol := dotTolerance(a, b); math.Abs(got-want) > tol {
				t.Fatalf("n=%d trial %d: asm dot %v, reference %v, |diff| %g > tol %g",
					n, trial, got, want, math.Abs(got-want), tol)
			}
		}
	}
}

func TestSIMDStepMatchesReference(t *testing.T) {
	forceSIMD(t)
	r := rng.New(42)
	for _, n := range asmLengths {
		kern := KernelFor(n)
		for trial := 0; trial < 100; trial++ {
			w := make([]float64, n)
			h := make([]float64, n)
			fill(r, w)
			fill(r, h)
			wRef := append([]float64(nil), w...)
			hRef := append([]float64(nil), h...)
			rating := r.Uniform(-5, 5)
			step := r.Uniform(0, 0.1)
			lambda := r.Uniform(0, 0.2)

			// δe ≤ δdot plus one rounding of the subtraction
			// rating − dot on each side.
			eRef := SGDUpdate(wRef, hRef, rating, step, lambda)
			deltaE := dotTolerance(w, h) + 2*math.Abs(eRef)*0x1p-53
			e := kern.Step(w, h, rating, step, lambda)
			if math.Abs(e-eRef) > deltaE {
				t.Fatalf("n=%d: asm residual %v vs reference %v beyond dot tolerance %g",
					n, e, eRef, deltaE)
			}
			sg, sl := step*math.Max(math.Abs(e), math.Abs(eRef)), step*lambda
			for l := 0; l < n; l++ {
				tol := step*deltaE*(math.Abs(hRef[l])+1) + updTolerance(wRef[l], hRef[l], sg, sl)
				if math.Abs(w[l]-wRef[l]) > tol {
					t.Fatalf("n=%d elem %d: asm w %v vs reference %v (tol %g)", n, l, w[l], wRef[l], tol)
				}
				tol = step*deltaE*(math.Abs(wRef[l])+1) + updTolerance(hRef[l], wRef[l], sg, sl)
				if math.Abs(h[l]-hRef[l]) > tol {
					t.Fatalf("n=%d elem %d: asm h %v vs reference %v (tol %g)", n, l, h[l], hRef[l], tol)
				}
			}
		}
	}
}

func TestSIMDGradMatchesReference(t *testing.T) {
	forceSIMD(t)
	r := rng.New(43)
	for _, n := range asmLengths {
		kern := KernelFor(n)
		for trial := 0; trial < 100; trial++ {
			w := make([]float64, n)
			h := make([]float64, n)
			fill(r, w)
			fill(r, h)
			wRef := append([]float64(nil), w...)
			hRef := append([]float64(nil), h...)
			g := r.Uniform(-2, 2)
			step := r.Uniform(0, 0.1)
			lambda := r.Uniform(0, 0.2)
			SGDUpdateGrad(wRef, hRef, g, step, lambda)
			kern.Grad(w, h, g, step, lambda)
			sg, sl := step*g, step*lambda
			for l := 0; l < n; l++ {
				if tol := updTolerance(wRef[l], hRef[l], sg, sl); math.Abs(w[l]-wRef[l]) > tol {
					t.Fatalf("n=%d elem %d: asm w %v vs reference %v (tol %g)", n, l, w[l], wRef[l], tol)
				}
				if tol := updTolerance(hRef[l], wRef[l], sg, sl); math.Abs(h[l]-hRef[l]) > tol {
					t.Fatalf("n=%d elem %d: asm h %v vs reference %v (tol %g)", n, l, h[l], hRef[l], tol)
				}
			}
		}
	}
}

// TestSIMDItemPassBitMatchesStep: the asm item pass runs the fused asm
// step's exact operation sequence per rating, so against kern.Step at
// the same schedule it must agree bit for bit, in both precisions.
// Each list runs three passes, so counts move across the table end
// between passes as well as within a list.
func TestSIMDItemPassBitMatchesStep(t *testing.T) {
	forceSIMD(t)
	r := rng.New(44)
	const lambda = 0.02
	for _, k := range []int{8, 16, 32, 17, 100} {
		kern, kern32 := KernelFor(k), KernelFor32(k)
		for _, c := range itemPassCases(r) {
			t.Run(fmt.Sprintf("K=%d/%s/f64", k, c.name), func(t *testing.T) {
				checkItemPass(t, r, k, c,
					func(w []float64, c itemPassCase, h []float64, slow func(int) float64) {
						kern.ItemPass(w, c.users, c.vals, c.counts, h, lambda, itemPassSteps, slow)
					},
					func(w, h []float64, rating, step float64) { kern.Step(w, h, rating, step, lambda) })
			})
			t.Run(fmt.Sprintf("K=%d/%s/f32", k, c.name), func(t *testing.T) {
				checkItemPass(t, r, k, c,
					func(w []float32, c itemPassCase, h []float32, slow func(int) float64) {
						kern32.ItemPass(w, c.users, c.vals, c.counts, h, lambda, itemPassSteps, slow)
					},
					func(w, h []float32, rating, step float64) {
						kern32.Step(w, h, float32(rating), float32(step), lambda)
					})
			})
		}
	}
}

// itemPassSteps is the short step table of the item-pass tests; counts
// at or past its end take the slow closure.
var itemPassSteps = []float64{0.05, 0.04, 0.03, 0.025}

func itemPassSlow(t int) float64 { return 0.02 / float64(t+1) }

// itemPassUsers is the row count of the item-pass tests' W.
const itemPassUsers = 40

// itemPassCase is one item's rating list.
type itemPassCase struct {
	name   string
	users  []int32
	vals   []float64
	counts []int32
}

// itemPassCases covers the asm loop's exits and its prefetch window:
// an empty list; a list longer than two itemPassChunks whose counts
// cross the table end every few ratings; repeated users, the same user
// one and two ratings apart included (inside the prefetch distance);
// and the ascending-user order real rating lists have.
func itemPassCases(r *rng.Source) []itemPassCase {
	mk := func(name string, n int, user func(x int) int32, count func(x int) int32) itemPassCase {
		c := itemPassCase{name: name, users: make([]int32, n), vals: make([]float64, n), counts: make([]int32, n)}
		for x := 0; x < n; x++ {
			c.users[x] = user(x)
			c.vals[x] = r.Uniform(-3, 3)
			c.counts[x] = count(x)
		}
		return c
	}
	random := func(int) int32 { return int32(r.Intn(itemPassUsers)) }
	inTable := func(int) int32 { return int32(r.Intn(len(itemPassSteps))) }
	return []itemPassCase{
		mk("empty", 0, random, inTable),
		// Runs of three ratings per count 0..7: in the table for 0..3,
		// past it for 4..7, so the loop bails and resumes every 12.
		mk("crossing", 2*itemPassChunk+300, random, func(x int) int32 { return int32(x/3) % 8 }),
		mk("repeats", 90, func(x int) int32 {
			switch x % 6 {
			case 0, 1:
				return 3 // back to back
			case 3:
				return 3 // two ratings after the last 3
			}
			return int32(r.Intn(3))
		}, func(x int) int32 { return int32(r.Intn(6)) }),
		mk("ascending", 35, func(x int) int32 { return int32(x) }, inTable),
	}
}

// checkItemPass runs c through pass three times and through per-rating
// step calls three times, from the same random start, and requires the
// rows and counts to match bit for bit.
func checkItemPass[F float32 | float64](t *testing.T, r *rng.Source, k int, c itemPassCase,
	pass func(w []F, c itemPassCase, h []F, slow func(int) float64),
	step func(w, h []F, rating, step float64)) {
	t.Helper()
	wData := make([]F, itemPassUsers*k)
	h := make([]F, k)
	for i := range wData {
		wData[i] = F(r.Uniform(-1, 1))
	}
	for i := range h {
		h[i] = F(r.Uniform(-1, 1))
	}
	wRef := append([]F(nil), wData...)
	hRef := append([]F(nil), h...)
	countsRef := append([]int32(nil), c.counts...)
	c.counts = append([]int32(nil), c.counts...)
	slowCalls := 0
	slow := func(t int) float64 { slowCalls++; return itemPassSlow(t) }
	for p := 0; p < 3; p++ {
		for x, u := range c.users {
			tc := countsRef[x]
			countsRef[x] = tc + 1
			s := itemPassSlow(int(tc))
			if int(tc) < len(itemPassSteps) {
				s = itemPassSteps[tc]
			}
			o := int(u) * k
			step(wRef[o:o+k], hRef, c.vals[x], s)
		}
		pass(wData, c, h, slow)
	}
	if c.name == "crossing" && slowCalls == 0 {
		t.Fatal("slow fallback never exercised")
	}
	for i := range wData {
		if wData[i] != wRef[i] {
			t.Fatalf("wData[%d] = %v, per-rating %v", i, wData[i], wRef[i])
		}
	}
	for i := range h {
		if h[i] != hRef[i] {
			t.Fatalf("h[%d] = %v, per-rating %v", i, h[i], hRef[i])
		}
	}
	for i := range c.counts {
		if c.counts[i] != countsRef[i] {
			t.Fatalf("counts[%d] = %d, want %d", i, c.counts[i], countsRef[i])
		}
	}
}

// TestSIMDItemPassPanicsOnBadUser: a user index outside W makes the asm
// item pass stop and hand the rating back to Go, whose row slice
// expression must panic with the same runtime error a per-rating loop
// raises — after the ratings before it were applied and the bad
// rating's count was taken, as that loop leaves them.
func TestSIMDItemPassPanicsOnBadUser(t *testing.T) {
	forceSIMD(t)
	const nUsers = 4
	for _, k := range []int{8, 100} {
		for _, bad := range []int32{nUsers, -1, math.MaxInt32} {
			users := []int32{0, 2, bad, 1}
			vals := []float64{1, 2, 3, 4}
			steps := []float64{0.01}
			slow := func(int) float64 { return 0.01 }
			wData := make([]float64, nUsers*k)
			wantErr := panicOf(func() { _ = wData[int(bad)*k:][:k] })

			counts := make([]int32, len(users))
			h := make([]float64, k)
			got := panicOf(func() { KernelFor(k).ItemPass(wData, users, vals, counts, h, 0.01, steps, slow) })
			checkBadUserPanic(t, k, bad, got, wantErr, counts)

			counts32 := make([]int32, len(users))
			h32 := make([]float32, k)
			got = panicOf(func() {
				KernelFor32(k).ItemPass(make([]float32, nUsers*k), users, vals, counts32, h32, 0.01, steps, slow)
			})
			checkBadUserPanic(t, k, bad, got, wantErr, counts32)
		}
	}
}

func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func checkBadUserPanic(t *testing.T, k int, bad int32, got, want any, counts []int32) {
	t.Helper()
	err, ok := got.(runtime.Error)
	if !ok {
		t.Fatalf("K=%d user %d: panic %v, want a runtime error", k, bad, got)
	}
	if err.Error() != want.(runtime.Error).Error() {
		t.Fatalf("K=%d user %d: panic %q, want %q", k, bad, err, want)
	}
	if fmt.Sprint(counts) != "[1 1 1 0]" {
		t.Fatalf("K=%d user %d: counts %v after the panic, want [1 1 1 0]", k, bad, counts)
	}
}

// special packs the awkward values the property tests below mix into
// otherwise-random rows.
var special = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1035, // deeper subnormals
	0x1p-520, 0x1p510, -0x1p510, // magnitude extremes that stay finite
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestSIMDDotSpecialValues drives the asm dot with subnormals and
// non-finite values mixed into random rows. Finite references must
// agree within tolerance (plus absolute subnormal slack); non-finite
// references require a non-finite asm result (class equivalence — the
// exact NaN/Inf split legitimately depends on summation order).
func TestSIMDDotSpecialValues(t *testing.T) {
	forceSIMD(t)
	r := rng.New(45)
	for trial := 0; trial < 400; trial++ {
		n := asmLengths[r.Intn(len(asmLengths))]
		kern := KernelFor(n)
		a := make([]float64, n)
		b := make([]float64, n)
		fill(r, a)
		fill(r, b)
		for injected := 0; injected < 1+r.Intn(3); injected++ {
			a[r.Intn(n)] = special[r.Intn(len(special))]
			if r.Intn(2) == 0 {
				b[r.Intn(n)] = special[r.Intn(len(special))]
			}
		}
		want := Dot(a, b)
		got := kern.Dot(a, b)
		if math.IsNaN(want) || math.IsInf(want, 0) {
			if !math.IsNaN(got) && !math.IsInf(got, 0) {
				t.Fatalf("n=%d: reference %v non-finite, asm %v finite (a=%v b=%v)", n, want, got, a, b)
			}
			continue
		}
		tol := dotTolerance(a, b) + 16*math.SmallestNonzeroFloat64
		if math.Abs(got-want) > tol {
			t.Fatalf("n=%d: asm dot %v, reference %v, tol %g (a=%v b=%v)", n, got, want, tol, a, b)
		}
	}
}

// TestSIMDGradSpecialValues does the same for the update kernel, where
// subnormal rows exercise FMA's flush-free products.
func TestSIMDGradSpecialValues(t *testing.T) {
	forceSIMD(t)
	r := rng.New(46)
	for trial := 0; trial < 400; trial++ {
		n := asmLengths[r.Intn(len(asmLengths))]
		kern := KernelFor(n)
		w := make([]float64, n)
		h := make([]float64, n)
		fill(r, w)
		fill(r, h)
		for injected := 0; injected < 1+r.Intn(3); injected++ {
			w[r.Intn(n)] = special[r.Intn(len(special))]
			if r.Intn(2) == 0 {
				h[r.Intn(n)] = special[r.Intn(len(special))]
			}
		}
		wRef := append([]float64(nil), w...)
		hRef := append([]float64(nil), h...)
		g := r.Uniform(-2, 2)
		step := r.Uniform(0, 0.1)
		lambda := r.Uniform(0, 0.2)
		SGDUpdateGrad(wRef, hRef, g, step, lambda)
		kern.Grad(w, h, g, step, lambda)
		sg, sl := step*g, step*lambda
		for l := 0; l < n; l++ {
			for _, pair := range [2][3]float64{{w[l], wRef[l], hRef[l]}, {h[l], hRef[l], wRef[l]}} {
				got, want, partner := pair[0], pair[1], pair[2]
				if math.IsNaN(want) || math.IsInf(want, 0) {
					if !math.IsNaN(got) && !math.IsInf(got, 0) {
						t.Fatalf("n=%d elem %d: reference %v non-finite, asm %v finite", n, l, want, got)
					}
					continue
				}
				tol := updTolerance(want, partner, sg, sl) + 16*math.SmallestNonzeroFloat64
				if math.Abs(got-want) > tol {
					t.Fatalf("n=%d elem %d: asm %v vs reference %v (tol %g)", n, l, got, want, tol)
				}
			}
		}
	}
}

// FuzzSIMDDot fuzzes asm-vs-reference dot equivalence over raw bytes
// reinterpreted as float64 pairs — lengths, alignment offsets, and bit
// patterns (subnormals, infinities, NaNs) all come from the fuzzer. In
// CI only the seed corpus runs, as a regular test.
func FuzzSIMDDot(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, false)
	f.Add(make([]byte, 8*33), true)
	f.Add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}, false)
	f.Fuzz(func(t *testing.T, raw []byte, odd bool) {
		if !SIMDAvailable() {
			t.Skip("no AVX2/FMA on this machine")
		}
		old := SIMDEnabled()
		SetSIMD(true)
		defer SetSIMD(old)
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(raw[i*8+j])
			}
			vals[i] = math.Float64frombits(bits)
		}
		// Odd split offsets the second row by one element so the two
		// base pointers land on different 32-byte phases.
		n := len(vals) / 2
		if odd && n > 0 {
			n--
		}
		if n == 0 {
			return
		}
		a, b := vals[:n], vals[len(vals)-n:]
		want := Dot(a, b)
		got := KernelFor(n).Dot(a, b)
		if math.IsNaN(want) || math.IsInf(want, 0) {
			if !math.IsNaN(got) && !math.IsInf(got, 0) {
				t.Fatalf("reference %v non-finite, asm %v finite", want, got)
			}
			return
		}
		tol := dotTolerance(a, b) + 16*math.SmallestNonzeroFloat64
		if math.IsInf(tol, 0) {
			return // |products| overflow: no finite bound to check against
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("asm dot %v, reference %v, tol %g (n=%d)", got, want, tol, n)
		}
	})
}

// TestKernelSwitchesAreRaceSafe hammers the two dispatch switches from
// concurrent goroutines while readers select kernels — the -race CI
// job turns any non-atomic access here into a failure. (This is the
// regression test for SetReferenceOnly's former plain-bool write.)
func TestKernelSwitchesAreRaceSafe(t *testing.T) {
	oldRef, oldSIMD := ReferenceOnly(), SIMDEnabled()
	t.Cleanup(func() { SetReferenceOnly(oldRef); SetSIMD(oldSIMD) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(flip bool) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				SetReferenceOnly(flip)
				SetSIMD(!flip)
			}
		}(i%2 == 0)
		go func() {
			defer wg.Done()
			a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			for j := 0; j < 200; j++ {
				_ = KernelFor(8).Dot(a, a)
				_ = ReferenceOnly()
				_ = SIMDEnabled()
			}
		}()
	}
	wg.Wait()
}
