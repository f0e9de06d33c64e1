package vecmath

// Go-side surface of the AVX2/FMA kernels in kernels_amd64.s: argument
// declarations, bounds-checked slice wrappers, and the Kernel/Kernel32
// constructors the dispatcher in kernels.go consults. The wrappers do
// the length checks the asm cannot (the kernels trust n), so asm sees
// only in-bounds base pointers; zero-length rows never reach asm at
// all. The item passes are the one exception: they range-check each
// user index themselves and hand a bad one back to the wrapper.

import "unsafe"

// simdAvailable records, once at init, whether the CPU and OS support
// the AVX2/FMA kernels. On other GOARCHes it is a false constant (see
// kernels_noasm.go).
var simdAvailable = detectSIMD()

//go:noescape
func dotAVX(a, b *float64, n int) float64

//go:noescape
func sgdAVX(w, h *float64, n int, sg, sl float64)

//go:noescape
func fstepAVX(w, h *float64, n int, rating, step, lambda float64) float64

//go:noescape
func itemPassAVX(w *float64, rows, k int, users *int32, vals *float64, counts *int32, n int,
	h *float64, lambda float64, steps *float64, nsteps int) int

//go:noescape
func dotAVX32(a, b *float32, n int) float32

//go:noescape
func sgdAVX32(w, h *float32, n int, sg, sl float32)

//go:noescape
func fstepAVX32(w, h *float32, n int, rating, step, lambda float32) float32

//go:noescape
func itemPassAVX32(w *float32, rows, k int, users *int32, vals *float64, counts *int32, n int,
	h *float32, lambda float32, steps *float64, nsteps int) int

// itemPassChunk caps the ratings one itemPassAVX call covers. Assembly
// is not asynchronously preemptible, so an item with a very long rating
// list would otherwise hold off a stop-the-world for the whole pass;
// 1024 K=100 steps take a few hundred microseconds at most.
const itemPassChunk = 1024

// simdKernelFor returns the AVX2 kernel bundle for rank k, or ok=false
// when the hardware lacks AVX2/FMA (the caller then falls through to
// the portable kernels).
func simdKernelFor(k int) (Kernel, bool) {
	if !simdAvailable || k <= 0 {
		return Kernel{}, false
	}
	return Kernel{K: k, Dot: dotSIMD, Step: stepSIMD, Grad: gradSIMD,
		ItemPass: itemPassSIMD(k)}, true
}

// simdKernelFor32 is the float32 twin of simdKernelFor.
func simdKernelFor32(k int) (Kernel32, bool) {
	if !simdAvailable || k <= 0 {
		return Kernel32{}, false
	}
	return Kernel32{K: k, Dot: dotSIMD32, Step: stepSIMD32, Grad: gradSIMD32,
		ItemPass: itemPassSIMD32(k)}, true
}

func dotSIMD(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return dotAVX(&a[0], &b[0], len(a))
}

func stepSIMD(w, h []float64, rating, step, lambda float64) float64 {
	if len(w) != len(h) {
		panic("vecmath: FusedSGDStep length mismatch")
	}
	if len(w) == 0 {
		return rating
	}
	return fstepAVX(&w[0], &h[0], len(w), rating, step, lambda)
}

func gradSIMD(w, h []float64, g, step, lambda float64) {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdateGrad length mismatch")
	}
	if len(w) == 0 {
		return
	}
	sgdAVX(&w[0], &h[0], len(w), step*g, step*lambda)
}

// itemPassSIMD returns the batched item pass for rank k: the whole
// rating loop runs in assembly (itemPassAVX), which prefetches the user
// rows a few ratings ahead. It comes back here only for a rating whose
// count is past the step table, or whose user index is out of range;
// that rating then runs the Go way, where the row slice expression
// panics on a bad index just as a per-rating loop would.
func itemPassSIMD(k int) ItemPassFunc {
	return func(wData []float64, users []int32, vals []float64,
		counts []int32, h []float64, lambda float64, steps []float64, slow func(int) float64) {
		if len(h) != k {
			panic("vecmath: ItemPass width mismatch")
		}
		vals = vals[:len(users)]
		counts = counts[:len(users)]
		w, rows, sp := unsafe.SliceData(wData), len(wData)/k, unsafe.SliceData(steps)
		for x := 0; x < len(users); {
			n := min(len(users)-x, itemPassChunk)
			d := itemPassAVX(w, rows, k, &users[x], &vals[x], &counts[x], n, &h[0], lambda, sp, len(steps))
			if x += d; d < n {
				t := counts[x]
				counts[x] = t + 1
				step := stepAt(t, steps, slow)
				row := wData[int(users[x])*k:][:k]
				fstepAVX(&row[0], &h[0], k, vals[x], step, lambda)
				x++
			}
		}
	}
}

func dotSIMD32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return dotAVX32(&a[0], &b[0], len(a))
}

func stepSIMD32(w, h []float32, rating, step, lambda float32) float32 {
	if len(w) != len(h) {
		panic("vecmath: FusedSGDStep length mismatch")
	}
	if len(w) == 0 {
		return rating
	}
	return fstepAVX32(&w[0], &h[0], len(w), rating, step, lambda)
}

func gradSIMD32(w, h []float32, g, step, lambda float32) {
	if len(w) != len(h) {
		panic("vecmath: SGDUpdateGrad length mismatch")
	}
	if len(w) == 0 {
		return
	}
	sgdAVX32(&w[0], &h[0], len(w), step*g, step*lambda)
}

// itemPassSIMD32 is the float32 twin of itemPassSIMD.
func itemPassSIMD32(k int) ItemPassFunc32 {
	return func(wData []float32, users []int32, vals []float64,
		counts []int32, h []float32, lambda float32, steps []float64, slow func(int) float64) {
		if len(h) != k {
			panic("vecmath: ItemPass width mismatch")
		}
		vals = vals[:len(users)]
		counts = counts[:len(users)]
		w, rows, sp := unsafe.SliceData(wData), len(wData)/k, unsafe.SliceData(steps)
		for x := 0; x < len(users); {
			n := min(len(users)-x, itemPassChunk)
			d := itemPassAVX32(w, rows, k, &users[x], &vals[x], &counts[x], n, &h[0], lambda, sp, len(steps))
			if x += d; d < n {
				t := counts[x]
				counts[x] = t + 1
				step := float32(stepAt(t, steps, slow))
				row := wData[int(users[x])*k:][:k]
				fstepAVX32(&row[0], &h[0], k, float32(vals[x]), step, lambda)
				x++
			}
		}
	}
}
