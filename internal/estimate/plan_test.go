package estimate

import (
	"math"
	"sync"
	"testing"
	"unsafe"

	"xseed/internal/xpath"
)

// runnerQueries cover every step shape the runner evaluates: child and
// descendant axes, wildcards, predicates with and without a following name
// test, nested predicates, unknown labels, and steps that reach one EPT node
// from several context nodes (//s//p), where the max-weight merge applies.
var runnerQueries = []string{
	"/a/c/s", "//s//p", "//s//s//p", "//*", "//*//*", "/a/*/s[p]/t",
	"//c[.//t]//p", "/a/c[s[t]][p]/s", "/a/c/s[t][p]/s", "//b//d[e]", "//d[e][f]/e",
	"/a/nosuch", "//a/b//e",
}

// freshRun evaluates p over sn with a runner that has never run.
func freshRun(p *Plan, sn *Snapshot) float64 {
	root, st := sn.EPT()
	return new(runner).run(p, root, st.Nodes, sn.opt.HET, sn.hashes)
}

// runnerSnapshots returns snapshots whose EPTs differ in size: Figure 2,
// Figure 2 pruned by a cardinality threshold, and Figure 4.
func runnerSnapshots(t *testing.T) []*Snapshot {
	_, k2, _, _ := fig2(t)
	_, k4, _ := fig4(t)
	return []*Snapshot{
		NewSnapshot(k2, k2.Dict(), Options{}),
		NewSnapshot(k2, k2.Dict(), Options{CardThreshold: 2}),
		NewSnapshot(k4, k4.Dict(), Options{}),
	}
}

func TestPlanStepIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(planStep{}); n != 16 {
		t.Fatalf("planStep is %d bytes, want 16", n)
	}
}

// TestEPTNodeIDsDense: IDs number the EPT's nodes 0..Nodes-1, each once.
func TestEPTNodeIDsDense(t *testing.T) {
	for _, sn := range runnerSnapshots(t) {
		root, st := sn.EPT()
		seen := make([]bool, st.Nodes)
		var walk func(n *EPTNode)
		walk = func(n *EPTNode) {
			if n.ID < 0 || int(n.ID) >= st.Nodes || seen[n.ID] {
				t.Fatalf("EPT node ID %d: out of [0,%d) or repeated", n.ID, st.Nodes)
			}
			seen[n.ID] = true
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
		for id, ok := range seen {
			if !ok {
				t.Fatalf("no EPT node has ID %d of %d", id, st.Nodes)
			}
		}
	}
}

// TestRunnerGenerationWraps: the dedup stamps of steps run before the
// generation counter wrapped must not match steps run after it.
func TestRunnerGenerationWraps(t *testing.T) {
	sn := runnerSnapshots(t)[0]
	root, st := sn.EPT()
	for _, q := range runnerQueries {
		p := Compile(xpath.MustParse(q), sn.dict)
		r := new(runner)
		// The first run stamps generations 1, 2, ...; the second wraps at
		// its first step and then repeats the same steps under the same
		// generations, so without the clear on wrap those stamps would
		// look current.
		r.run(p, root, st.Nodes, nil, sn.hashes)
		r.gen = math.MaxUint32
		want := freshRun(p, sn)
		if got := r.run(p, root, st.Nodes, nil, sn.hashes); got != want {
			t.Errorf("%s across the generation wrap = %v, want %v", q, got, want)
		}
		if want != 0 && r.gen > uint32(len(p.steps)) {
			t.Fatalf("%s: generation %d, the counter never wrapped", q, r.gen)
		}
	}
}

// TestRunnerReuseAcrossEPTSizes: one runner, as the pool hands it out,
// alternating between EPTs of different sizes answers exactly what a fresh
// runner does.
func TestRunnerReuseAcrossEPTSizes(t *testing.T) {
	sns := runnerSnapshots(t)
	r := new(runner)
	for round := 0; round < 3; round++ {
		for _, i := range []int{2, 0, 1, 0, 2} {
			sn := sns[i]
			root, st := sn.EPT()
			for _, q := range runnerQueries {
				p := Compile(xpath.MustParse(q), sn.dict)
				if got, want := r.run(p, root, st.Nodes, sn.opt.HET, sn.hashes), freshRun(p, sn); got != want {
					t.Fatalf("snapshot %d, %s: reused runner = %v, fresh = %v", i, q, got, want)
				}
			}
		}
	}
}

// TestPlanRunConcurrent: plans run concurrently through the runner pool
// answer what they answer alone (run it under -race).
func TestPlanRunConcurrent(t *testing.T) {
	sns := runnerSnapshots(t)
	type job struct {
		p    *Plan
		sn   *Snapshot
		want float64
	}
	var jobs []job
	for _, sn := range sns {
		for _, q := range runnerQueries {
			p := Compile(xpath.MustParse(q), sn.dict)
			jobs = append(jobs, job{p, sn, freshRun(p, sn)})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j := jobs[(g*7+i)%len(jobs)]
				if got := j.p.Run(j.sn); got != j.want {
					t.Errorf("concurrent run = %v, want %v", got, j.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
