package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload for one round per client, untraced and
// traced, with every output check on: no operation may fail, and the
// result must carry exactly the metrics BENCHMARK.json names, with
// their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the generator has %d", len(spec.Workloads), len(specs))
	}
	for i, sp := range specs {
		if spec.Workloads[i].Name != sp.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, sp.name)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(sp, config{workload: sp.name, seed: 7, seconds: 1, trace: trace, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sp.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got, exp []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if len(got) != len(exp) {
				t.Errorf("%s trace=%v: metrics %v, want %v", sp.name, trace, got, exp)
				continue
			}
			for j := range got {
				if got[j] != exp[j] {
					t.Errorf("%s trace=%v: metric %q, want %q", sp.name, trace, got[j], exp[j])
				}
			}
		}
	}
}

// TestPlanIsSeeded checks that a catalog round is a function of the
// seed alone, that the seed changes only the order and the Range
// offsets, never which files are touched or how many bytes a Range asks
// for, and that every conditional request names a file an earlier
// operation of the round fetched.
func TestPlanIsSeeded(t *testing.T) {
	c := &catalog{}
	for p := 0; p < catDirs*catPerDir; p++ {
		c.names = append(c.names, "")
		c.byRank = append(c.byRank, p)
		for range catFileNames {
			c.files = append(c.files, catFile{pkg: p, data: make([]byte, 1000+p)})
		}
	}
	a, b := c.plan(1, stream(3, "x")), c.plan(1, stream(3, "x"))
	if len(a) != len(b) {
		t.Fatal("plans differ in length")
	}
	fetched := map[int]bool{}
	counts := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("operation %d differs between two plans of one seed", i)
		}
		op := a[i]
		counts[op.kind]++
		switch op.kind {
		case "get", "head":
			fetched[op.file] = true
		case "cond304":
			if !fetched[op.file] {
				t.Fatalf("operation %d: conditional GET of a file not fetched before", i)
			}
		case "cond200":
			if !fetched[op.file] || !fetched[op.other] || op.file == op.other {
				t.Fatalf("operation %d: mismatching conditional GET needs two fetched files", i)
			}
		case "range":
			if op.n < 1 || op.off < 0 || op.off+op.n > int64(len(c.files[op.file].data)) {
				t.Fatalf("operation %d: Range [%d, +%d) outside the file", i, op.off, op.n)
			}
		}
	}
	for _, m := range catMix {
		if counts[m.kind] != m.count {
			t.Errorf("%s: %d per round, want %d", m.kind, counts[m.kind], m.count)
		}
	}

	touched := func(ops []catOp) []string {
		var s []string
		for _, op := range ops {
			s = append(s, fmt.Sprint(op.kind, op.file, op.dir, op.n))
		}
		sort.Strings(s)
		return s
	}
	ta, tb := touched(a), touched(c.plan(1, stream(4, "x")))
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("seeds 3 and 4 touch different files or Range lengths: %s against %s", ta[i], tb[i])
		}
	}
}
