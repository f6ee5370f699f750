package het

import (
	"math"
	"math/rand"
	"testing"
)

// viewOp codes, one byte each in an op stream (taken mod numViewOps).
const (
	opSetBudget = iota
	opAddBatch
	opAdd
	opAdd2
	opAdd3
	opAdd4
	opView
	opView2
	numViewOps
)

// viewHarness replays an operation sequence decoded from bytes against a
// table and checks every View it takes against a freshly flattened one.
// The first byte sets the hash span (so a stream chooses between a small,
// collision-heavy key space and a wide one); the rest decode as ops.
type viewHarness struct {
	t    testing.TB
	tab  *Table
	data []byte
	span uint32

	last *View
	kept []keptView // earlier views with the answers they gave

	// What the checks saw: views kept unchanged, derived with an overlay,
	// and flattened because the overlay outgrew its base.
	reused, derived, overlayFlattens int
}

// keptView is a view handed out earlier and what it answered then, over
// every probed hash.
type keptView struct {
	v     *View
	paths []pathVal
	pats  []patVal
}

func newViewHarness(t testing.TB, data []byte) *viewHarness {
	d := &viewHarness{t: t, tab: New(0), span: 24}
	if len(data) > 0 {
		d.span = 8 + uint32(data[0])*2
		data = data[1:]
	}
	d.data = data
	return d
}

func (d *viewHarness) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// values holds the float payloads ops draw from: repeats make confirming
// feedback common, and -0 and NaN must count as changes.
var values = [8]float64{0, 1, 2, 7.5, 1e6, math.Copysign(0, -1), math.NaN(), 0.25}

func (d *viewHarness) entry() Entry {
	h := (uint32(d.next())<<8|uint32(d.next()))%d.span + 1
	kind := d.next()
	return Entry{
		Hash:    h,
		Pattern: kind&3 == 0,
		Card:    values[kind>>2&7],
		Bsel:    values[d.next()&7],
		BselOK:  kind&0x20 != 0,
		Err:     float64(d.next() % 32),
	}
}

// run decodes and applies every op, checks a final view, and returns.
func (d *viewHarness) run() {
	for len(d.data) > 0 {
		switch d.next() % numViewOps {
		case opSetBudget:
			// Tighter, looser, unlimited (0 and negative), and budgets that
			// are not a whole number of entries.
			b := d.next()
			switch {
			case b < 16:
				d.tab.SetBudget(-int(b))
			default:
				d.tab.SetBudget(int(b%64)*EntrySize + int(b>>6))
			}
		case opAddBatch:
			n := int(d.next()%4) + 1
			batch := make([]Entry, n)
			for i := range batch {
				batch[i] = d.entry()
			}
			d.tab.AddBatch(batch)
		case opView, opView2:
			d.check()
		default:
			d.tab.Add(d.entry())
		}
	}
	d.check()
}

// probes returns every hash the stream can produce plus absent ones.
func (d *viewHarness) probes() []uint32 {
	out := make([]uint32, 0, d.span+3)
	for h := uint32(0); h <= d.span+1; h++ {
		out = append(out, h)
	}
	return append(out, math.MaxUint32)
}

// check takes a View and asserts: it answers every probe, path and
// pattern, bit for bit as a flat build of the same table state; it is the
// previous view exactly when no answer changed (a full build — after
// AddBatch, a resident-limit change or a long touched list — is always
// new); and every earlier view still answers what it answered then.
func (d *viewHarness) check() {
	t := d.t
	full := d.tab.view == nil
	v := d.tab.View()
	flat := d.tab.build()
	probes := d.probes()
	kv := keptView{v: v, paths: make([]pathVal, len(probes)), pats: make([]patVal, len(probes))}
	changed := false
	for i, h := range probes {
		got, want := answerPath(v, h), answerPath(flat, h)
		if !got.same(want) {
			t.Fatalf("path %d: view answers %+v, flat build %+v", h, got, want)
		}
		gotP, wantP := answerPattern(v, h), answerPattern(flat, h)
		if !gotP.same(wantP) {
			t.Fatalf("pattern %d: view answers %+v, flat build %+v", h, gotP, wantP)
		}
		kv.paths[i], kv.pats[i] = got, gotP
		if d.last != nil && (!answerPath(d.last, h).same(want) || !answerPattern(d.last, h).same(wantP)) {
			changed = true
		}
	}
	if d.last != nil && !full {
		switch {
		case changed && v == d.last:
			t.Fatal("View returned the previous view after an answer changed")
		case !changed && v != d.last:
			t.Fatal("View returned a new view though no answer changed")
		}
	}
	switch {
	case v == d.last:
		d.reused++
	case full:
	case v.opaths == nil && v.opatterns == nil:
		d.overlayFlattens++
	default:
		d.derived++
	}
	for _, k := range d.kept {
		for i, h := range probes[:len(k.paths)] {
			if !answerPath(k.v, h).same(k.paths[i]) || !answerPattern(k.v, h).same(k.pats[i]) {
				t.Fatalf("an earlier view changed its answer for hash %d", h)
			}
		}
	}
	if len(d.kept) == 16 {
		d.kept = append(d.kept[:1], d.kept[2:]...) // keep the oldest, drop the next
	}
	d.kept = append(d.kept, kv)
	d.last = v
}

// answerPath and answerPattern read a view through its public lookups.
func answerPath(v *View, h uint32) pathVal {
	card, bsel, bselOK, ok := v.LookupPath(h)
	return pathVal{card: card, bsel: bsel, bselOK: bselOK, ok: ok}
}

func answerPattern(v *View, h uint32) patVal {
	bsel, ok := v.LookupPattern(h)
	return patVal{bsel: bsel, ok: ok}
}

// entryBytes is how many stream bytes viewHarness.entry consumes.
const entryBytes = 5

// viewStream generates an op stream: a hash span byte, then n ops drawn
// with the given weights (indexed by the op groups SetBudget, AddBatch,
// Add, View), each followed by the random operand bytes it consumes.
func viewStream(rng *rand.Rand, span byte, n int, weights [4]int) []byte {
	out := []byte{span}
	operands := func(k int) {
		for j := 0; j < k; j++ {
			out = append(out, byte(rng.Intn(256)))
		}
	}
	total := weights[0] + weights[1] + weights[2] + weights[3]
	for i := 0; i < n; i++ {
		switch w := rng.Intn(total); {
		case w < weights[0]:
			out = append(out, opSetBudget)
			operands(1)
		case w < weights[0]+weights[1]:
			size := byte(rng.Intn(4))
			out = append(out, opAddBatch, size)
			operands(int(size+1) * entryBytes)
		case w < weights[0]+weights[1]+weights[2]:
			out = append(out, opAdd)
			operands(entryBytes)
		default:
			out = append(out, opView)
		}
	}
	return out
}

// TestDerivedViewMatchesFlat is the randomized check of derived views:
// seeded op sequences mixing inserts and upserts of paths and patterns,
// card-only merges, errors moving entries both ways, budget changes and
// batch loads, each View checked against a flat build (viewHarness.check).
// The narrow-span runs keep a budget-capped table churning across its
// resident boundary; the wide-span runs only add and view an unlimited
// table, so overlays grow until they flatten.
func TestDerivedViewMatchesFlat(t *testing.T) {
	var reused, derived, flattens int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var data []byte
		if seed%4 == 0 {
			data = viewStream(rng, byte(100+rng.Intn(100)), 1200, [4]int{0, 0, 3, 1})
		} else {
			data = viewStream(rng, byte(rng.Intn(24)), 1000, [4]int{1, 1, 10, 4})
		}
		d := newViewHarness(t, data)
		d.run()
		reused += d.reused
		derived += d.derived
		flattens += d.overlayFlattens
	}
	t.Logf("views: %d reused, %d derived, %d overlay flattens", reused, derived, flattens)
	if reused == 0 || derived == 0 || flattens == 0 {
		t.Fatalf("the sequences never exercised a path: %d reused, %d derived, %d overlay flattens", reused, derived, flattens)
	}
}

// TestViewOverlayFlattens pins the flatten share: a table of n resident
// paths whose entries change one per view keeps deriving until its overlay
// holds n/overlayShare + overlayFloor keys, and the next change flattens.
func TestViewOverlayFlattens(t *testing.T) {
	const n = 800
	tab := New(0)
	batch := make([]Entry, n)
	for i := range batch {
		batch[i] = Entry{Hash: uint32(i + 1), Card: 1, Err: float64(i)}
	}
	tab.AddBatch(batch)
	first := tab.View()
	limit := n/overlayShare + overlayFloor
	for i := 0; i < limit; i++ {
		tab.Add(Entry{Hash: uint32(i + 1), Card: 2, Err: float64(i)})
		v := tab.View()
		if len(v.opaths) != i+1 {
			t.Fatalf("change %d: overlay holds %d keys, want %d", i+1, len(v.opaths), i+1)
		}
		if card, _, _, _ := first.LookupPath(uint32(i + 1)); card != 1 {
			t.Fatalf("the first view answers %g for a key changed later", card)
		}
	}
	tab.Add(Entry{Hash: uint32(limit + 1), Card: 2, Err: float64(limit)})
	if v := tab.View(); v.opaths != nil {
		t.Fatalf("overlay of %d keys over a base of %d did not flatten", len(v.opaths), len(v.paths))
	}
}

// FuzzHETView runs the derived-view checks of TestDerivedViewMatchesFlat
// over an op sequence decoded from the fuzz input.
func FuzzHETView(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f.Add(viewStream(rng, byte(seed*7), 60, [4]int{1, 1, 10, 4}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newViewHarness(t, data).run()
	})
}
