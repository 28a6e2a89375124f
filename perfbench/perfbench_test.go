package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// dumpInputs renders everything a workload would send, in order.
func dumpInputs(t *testing.T, wl workload, seed int64) string {
	t.Helper()
	b, err := wl.gen(seed)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	var sb strings.Builder
	switch b := b.(type) {
	case *passBench:
		for _, it := range append(append([]passItem(nil), b.warms...), b.items...) {
			for pass := 0; pass < 2; pass++ {
				in, err := renamed(it.in, passPrefix(pass))
				if err != nil {
					t.Fatal(err)
				}
				sb.Write(it.p.solveBody(in.Src))
			}
		}
	case *hotBench:
		for _, q := range b.single {
			sb.Write(q)
		}
		for _, p := range b.batches {
			sb.Write(p)
		}
		for i := int64(0); i < 1000; i++ {
			fmt.Fprintf(&sb, "%v", hotRequestAt(b.seed, i, b.hs))
		}
	case *sessBench:
		sb.Write(b.create)
		for _, ci := range append(append([]int(nil), b.order...), len(b.convs)-1) {
			for _, op := range b.convs[ci].Ops {
				fmt.Fprintf(&sb, "%d|%s|%s|%d\n", op.Kind, op.Body, op.Visible, op.Expect)
			}
		}
	default:
		t.Fatalf("%s: unexpected bench type %T", wl.name, b)
	}
	return sb.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		a, b := dumpInputs(t, wl, 7), dumpInputs(t, wl, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", wl.name)
		}
		if len(a) == 0 {
			t.Errorf("%s: no inputs generated", wl.name)
		}
		if c := dumpInputs(t, wl, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generated the same request sequence", wl.name)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for n := 1; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		v, q := tailPercentile(xs, 0.95)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if n >= 2*minTail+1 && beyond < minTail {
			t.Fatalf("n=%d: reported %v (p%.1f) with only %d samples beyond it", n, v, 100*q, beyond)
		}
		if v < median(xs) {
			t.Fatalf("n=%d: tail percentile %v below the median %v", n, v, median(xs))
		}
		if n >= 200 && q < 0.95 {
			t.Fatalf("n=%d: enough samples for p95, reported p%.1f", n, 100*q)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0},    // overlaps a
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0},   // runs past the root
		{Name: "d", Start: ms(15), End: ms(25), Parent: 1},    // grandchild: counts for a only
		{Name: "e", Start: ms(200), End: ms(210), Parent: -1}, // second root, no children
	}
	want := []time.Duration{ms(50), ms(10), ms(30), ms(30), ms(10), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self time %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans, time.Millisecond); by["root"][0] != 50 {
		t.Errorf("selfByName root = %v, want 50", by["root"])
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	wr := &windowResult{dur: time.Second, d: deltas{}, peaks: []float64{1}}
	e2e, _ := endToEnd([]float64{1}, wr, &tally{latencies: []float64{1}})
	layer, _ := perLayer(&tally{}, wr, &layerStats{}, map[string]int64{}, 0)
	for _, c := range []struct {
		kind     string
		emitted  map[string]float64
		declared []specMetric
	}{{"end_to_end", e2e, sp.EndToEnd}, {"per_layer", layer, sp.PerLayer}} {
		var names []string
		for n := range c.emitted {
			if !valid.MatchString(n) {
				t.Errorf("%s metric %q has characters outside [A-Za-z0-9_.-]", c.kind, n)
			}
			names = append(names, n)
		}
		var decl []string
		for _, m := range c.declared {
			decl = append(decl, m.Name)
		}
		sort.Strings(names)
		sort.Strings(decl)
		if strings.Join(names, " ") != strings.Join(decl, " ") {
			t.Errorf("%s: emitted %v\nBENCHMARK.json declares %v", c.kind, names, decl)
		}
	}
}
