package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{1000, 99, true},
		{999, 98, true},
		{300, 95, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-got)/100 < minBeyond-1e-9 {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestSampleTailReportsPercentileAndValue(t *testing.T) {
	var s sample
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	pct, v, ok := s.tail()
	if !ok || pct != 99 {
		t.Fatalf("tail() percentile = %v, %v; want 99", pct, ok)
	}
	if v < 990 || v > 991 {
		t.Errorf("p99 of 1..1000 = %v, want about 990", v)
	}
	if m := s.median(); m != 500.5 {
		t.Errorf("median = %v, want 500.5", m)
	}
	var few sample
	few.add(1)
	if _, _, ok := few.tail(); ok {
		t.Errorf("tail() of one sample reported a percentile")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "step", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "step", Start: 20, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "eval", Start: 80, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "kernel", Start: 25, End: 35},
		{ID: 6, Parent: 1, Name: "mark", Start: 60, End: 60},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"run":    100 - 40 - 20, // children cover [10,50) and [80,100)
		"step":   20 + 30 - 10,
		"eval":   40,
		"kernel": 10,
		"mark":   0,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestMetricNamesMatchRecordFormatAndBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, code reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, code reports %v", got, perLayer)
	}
	for _, w := range spec.Workloads {
		if _, ok := trainWorkloads[w.Name]; !ok && w.Name != "serve-longtail" {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, name := range append(slices.Clone(endToEnd), perLayer...) {
		if err := checkName(name); err != nil {
			t.Error(err)
		}
		if seen[name] {
			t.Errorf("metric %s listed twice", name)
		}
		seen[name] = true
	}
	for _, bad := range []string{"", "a b", "p99/ms", "_x", "ü"} {
		if checkName(bad) == nil {
			t.Errorf("checkName(%q) accepted a malformed name", bad)
		}
	}
}

// TestOpenLoopTimesFromDueTime stalls the first request: the requests
// due during the stall wait behind it on the single connection, and
// that wait must count in their latency.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		fmt.Fprint(w, `{"user":0,"n":10,"epoch":1,"shards":1,"items":[]}`)
	}))
	defer ts.Close()
	g := &loadGen{
		b:         &bench{tr: newTracer(false, "test")},
		client:    ts.Client(),
		url:       ts.URL,
		conns:     1,
		users:     1,
		rng:       rand.New(rand.NewPCG(1, 1)),
		firstSeen: map[uint64]time.Time{},
	}
	res := g.run("test", 100, 100*time.Millisecond, nil)
	if res.sent != 10 || res.errs != 0 {
		t.Fatalf("sent %d requests with %d errors, want 10 and 0", res.sent, res.errs)
	}
	// Requests due at 0, 10, ..., 50 ms all finish after the 60 ms
	// stall: their latencies from due time sum to about 210 ms. Timed
	// from the moment each was sent they would sum to about 60 ms.
	var sum float64
	for _, ms := range res.latency.xs {
		sum += ms
	}
	if sum < 150 {
		t.Errorf("latencies sum to %.1f ms; the wait behind the stalled request is not counted", sum)
	}
}
