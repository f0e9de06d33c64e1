package vecmath

// Micro-benchmarks for the per-rating hot-path kernels, reference vs
// specialized, across the ranks that matter (K = 8, 16, 32 have fully
// unrolled variants; 100 is the paper's Table 1 rank and exercises the
// generic fallback). ns/op here is ns/update for the Step kernels —
// the quantity NOMAD's throughput claims reduce to. Run with:
//
//	go test ./internal/vecmath -run '^$' -bench . -benchtime 100000x

import (
	"fmt"
	"testing"

	"nomad/internal/rng"
)

var benchWidths = []int{8, 16, 32, 100}

func benchRows(k int) (w, h []float64) {
	r := rng.New(uint64(k))
	w = make([]float64, k)
	h = make([]float64, k)
	fill(r, w)
	fill(r, h)
	return w, h
}

func BenchmarkDotReference(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = Dot(w, h)
			}
			_ = sink
		})
	}
}

func BenchmarkDotKernel(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		dot := KernelFor(k).Dot
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = dot(w, h)
			}
			_ = sink
		})
	}
}

// BenchmarkStepReference is the pre-optimization square-loss path as
// the solvers ran it: Dot, then a separate SGDUpdateGrad with the
// residual — two row traversals per rating.
func BenchmarkStepReference(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := 0.7 - Dot(w, h)
				SGDUpdateGrad(w, h, g, 1e-6, 1e-3)
			}
		})
	}
}

func BenchmarkStepFused(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		step := KernelFor(k).Step
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				step(w, h, 0.7, 1e-6, 1e-3)
			}
		})
	}
}

func BenchmarkGradReference(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SGDUpdateGrad(w, h, 0.1, 1e-6, 1e-3)
			}
		})
	}
}

func BenchmarkGradKernel(b *testing.B) {
	for _, k := range benchWidths {
		w, h := benchRows(k)
		grad := KernelFor(k).Grad
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grad(w, h, 0.1, 1e-6, 1e-3)
			}
		})
	}
}

// BenchmarkItemPass times the batched item pass the way NOMAD's workers
// run it: one op is one item token whose ratings visit user rows in
// ascending order, over a W far larger than any cache (k=100 and 53K
// rows: 42 MB in float64, the netflix-shaped benchmark workload). Every
// benchmark above reuses one in-cache row pair, so none of them sees
// the row fetches that dominate here. ns/rating is the per-update cost;
// the step-loop variant calls Kernel.Step per rating, without prefetch.
func BenchmarkItemPass(b *testing.B) {
	const k, rows, items, perItem = 100, 53_000, 64, 5_000
	r := rng.New(100)
	users := make([][]int32, items)
	vals := make([][]float64, items)
	for j := range users {
		for u := 0; u < rows; u++ {
			if r.Intn(rows) < perItem {
				users[j] = append(users[j], int32(u))
				vals[j] = append(vals[j], r.Uniform(1, 5))
			}
		}
	}
	// A table longer than any count these runs reach keeps every step
	// on the fast path.
	steps := make([]float64, 1<<12)
	for i := range steps {
		steps[i] = 1e-4
	}
	slow := func(int) float64 { return 1e-4 }
	run := func(b *testing.B, pass func(j int, counts []int32)) {
		counts := make([][]int32, items)
		for j := range counts {
			counts[j] = make([]int32, len(users[j]))
		}
		ratings := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % items
			pass(j, counts[j])
			ratings += len(users[j])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ratings), "ns/rating")
	}

	w, h := make([]float64, rows*k), make([]float64, k)
	fill(r, w)
	fill(r, h)
	kern := KernelFor(k)
	b.Run("f64", func(b *testing.B) {
		run(b, func(j int, counts []int32) {
			kern.ItemPass(w, users[j], vals[j], counts, h, 0.05, steps, slow)
		})
	})
	b.Run("f64-step-loop", func(b *testing.B) {
		run(b, func(j int, counts []int32) {
			for x, u := range users[j] {
				t := counts[x]
				counts[x] = t + 1
				kern.Step(w[int(u)*k:][:k], h, vals[j][x], stepAt(t, steps, slow), 0.05)
			}
		})
	})
	b.Run("f32", func(b *testing.B) {
		w, h := make([]float32, rows*k), make([]float32, k)
		fill32(r, w)
		fill32(r, h)
		kern := KernelFor32(k)
		run(b, func(j int, counts []int32) {
			kern.ItemPass(w, users[j], vals[j], counts, h, 0.05, steps, slow)
		})
	})
}
