package ctxtag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRootTagAllInvalid(t *testing.T) {
	r := Root()
	for i := 0; i < MaxPositions; i++ {
		if r.Valid(i) {
			t.Errorf("root tag has valid position %d", i)
		}
	}
	if r.String() != "XXXX" {
		t.Errorf("root tag string = %q, want XXXX", r.String())
	}
	if r.PopCount() != 0 {
		t.Errorf("root popcount = %d", r.PopCount())
	}
}

func TestWithPositionAndClear(t *testing.T) {
	tg := Root().WithPosition(0, true).WithPosition(2, false)
	if !tg.Valid(0) || !tg.Taken(0) {
		t.Error("position 0 should be valid taken")
	}
	if !tg.Valid(2) || tg.Taken(2) {
		t.Error("position 2 should be valid not-taken")
	}
	if tg.Valid(1) {
		t.Error("position 1 should be invalid")
	}
	if tg.String() != "TXNX" {
		t.Errorf("tag string = %q, want TXNX", tg.String())
	}
	if tg.PopCount() != 2 {
		t.Errorf("popcount = %d, want 2", tg.PopCount())
	}
	tg = tg.ClearPosition(0)
	if tg.Valid(0) {
		t.Error("cleared position 0 still valid")
	}
	if !tg.Valid(2) {
		t.Error("clearing position 0 disturbed position 2")
	}
}

func TestWithPositionOverwritesDirection(t *testing.T) {
	tg := Root().WithPosition(3, true).WithPosition(3, false)
	if tg.Taken(3) {
		t.Error("direction should be overwritten to not-taken")
	}
}

// TestPaperExamples reproduces the worked examples of Sec. 3.2.1:
// T(XXX) vs TNT(X) are related (second-level descendant), TT(XX) vs TNT(X)
// are not; and the comparison is rotation independent: (XX)T(X) vs T(X)TN.
func TestPaperExamples(t *testing.T) {
	// Positions are assigned left-to-right: index 0 is the leftmost symbol.
	tXXX := Root().WithPosition(0, true)
	tntX := Root().WithPosition(0, true).WithPosition(1, false).WithPosition(2, true)
	ttXX := Root().WithPosition(0, true).WithPosition(1, true)

	if !tXXX.IsAncestorOrSelf(tntX) {
		t.Error("T(XXX) must be ancestor of TNT(X)")
	}
	if !tntX.IsDescendantOrSelf(tXXX) {
		t.Error("TNT(X) must be descendant of T(XXX)")
	}
	if ttXX.Related(tntX) {
		t.Error("TT(XX) and TNT(X) must be unrelated")
	}

	// Rotate both tags right by two positions: (XX)T(X) and T(X)TN.
	// The ancestor relation must be unaffected.
	xxTx := Root().WithPosition(2, true)
	txTN := Root().WithPosition(0, true).WithPosition(2, true).WithPosition(3, false)
	if !xxTx.IsAncestorOrSelf(txTN) {
		t.Error("(XX)T(X) must be ancestor of T(X)TN after rotation")
	}
}

func TestAncestorReflexive(t *testing.T) {
	tg := Root().WithPosition(1, true).WithPosition(5, false)
	if !tg.IsAncestorOrSelf(tg) || !tg.IsDescendantOrSelf(tg) {
		t.Error("ancestor/descendant relations must be reflexive")
	}
}

func TestSiblingsUnrelated(t *testing.T) {
	parent := Root().WithPosition(0, true)
	left := parent.WithPosition(1, true)
	right := parent.WithPosition(1, false)
	if left.Related(right) {
		t.Error("sibling paths must be unrelated")
	}
	if !parent.IsAncestorOrSelf(left) || !parent.IsAncestorOrSelf(right) {
		t.Error("parent must be ancestor of both children")
	}
}

func TestOnWrongPath(t *testing.T) {
	// A divergence at position 2; branch resolves taken.
	taken := Root().WithPosition(2, true)
	notTaken := Root().WithPosition(2, false)
	unrelated := Root().WithPosition(1, true)
	if taken.OnWrongPath(2, true) {
		t.Error("taken child is on the correct path")
	}
	if !notTaken.OnWrongPath(2, true) {
		t.Error("not-taken child is on the wrong path")
	}
	if unrelated.OnWrongPath(2, true) {
		t.Error("a tag with position 2 invalid is never on the wrong path of it")
	}
	// Descendants of the wrong child are also wrong.
	grandchild := notTaken.WithPosition(0, true)
	if !grandchild.OnWrongPath(2, true) {
		t.Error("descendant of wrong child must be killed too")
	}
}

// Property: building a random ancestry chain yields tags where every prefix
// is an ancestor of every extension, and a flipped direction breaks the
// relation.
func TestAncestryChainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		positions := rng.Perm(MaxPositions)[:1+rng.Intn(10)]
		chain := []Tag{Root()}
		cur := Root()
		for _, p := range positions {
			cur = cur.WithPosition(p, rng.Intn(2) == 0)
			chain = append(chain, cur)
		}
		for i := 0; i < len(chain); i++ {
			for j := i; j < len(chain); j++ {
				if !chain[i].IsAncestorOrSelf(chain[j]) {
					t.Fatalf("trial %d: chain[%d] not ancestor of chain[%d]", trial, i, j)
				}
				if j > i && chain[j].IsAncestorOrSelf(chain[i]) && chain[j] != chain[i] {
					t.Fatalf("trial %d: descendant claims ancestry of ancestor", trial)
				}
			}
		}
		// Flip one direction of the deepest tag: must no longer be a
		// descendant of any strict ancestor that has that position valid.
		p := positions[len(positions)-1]
		flipped := cur.WithPosition(p, !cur.Taken(p))
		for i := 0; i < len(chain)-1; i++ {
			if chain[i].Valid(p) && chain[i].IsAncestorOrSelf(flipped) {
				t.Fatalf("trial %d: flipped tag still descendant", trial)
			}
		}
	}
}

// Property: ClearPosition commutes with the ancestor relation the way
// branch commit requires: clearing the same position in two related tags
// keeps them related.
func TestClearPreservesRelation(t *testing.T) {
	f := func(v1, d1, v2, d2 uint16, pos uint8) bool {
		p := int(pos) % MaxPositions
		a := tagFromBits(uint32(v1), uint32(d1))
		b := a // make b a descendant by adding positions from v2
		for i := 0; i < 16; i++ {
			if v2&(1<<uint(i)) != 0 && !b.Valid(i) {
				b = b.WithPosition(i, d2&(1<<uint(i)) != 0)
			}
		}
		if !a.IsAncestorOrSelf(b) {
			return true // construction failed (can't happen), skip
		}
		return a.ClearPosition(p).IsAncestorOrSelf(b.ClearPosition(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func tagFromBits(valid, dir uint32) Tag {
	tg := Root()
	for i := 0; i < MaxPositions; i++ {
		if valid&(1<<uint(i)) != 0 {
			tg = tg.WithPosition(i, dir&(1<<uint(i)) != 0)
		}
	}
	return tg
}

func TestPositionRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range position")
		}
	}()
	Root().WithPosition(MaxPositions, true)
}

func TestAllocatorRoundRobinReuse(t *testing.T) {
	a := NewAllocator(4)
	var got []int
	for i := 0; i < 4; i++ {
		p, ok := a.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		got = append(got, p)
	}
	if got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("positions assigned left to right, got %v", got)
	}
	if _, ok := a.Alloc(); ok {
		t.Error("alloc should fail when full")
	}
	if a.InUse() != 4 {
		t.Errorf("InUse = %d, want 4", a.InUse())
	}
	// Free position 1; the next alloc must wrap around and reuse it.
	a.Free(1)
	p, ok := a.Alloc()
	if !ok || p != 1 {
		t.Errorf("expected wrap-around reuse of position 1, got %d ok=%v", p, ok)
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(2)
	p, _ := a.Alloc()
	a.Free(p)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double free")
		}
	}()
	a.Free(p)
}

func TestAllocatorReset(t *testing.T) {
	a := NewAllocator(3)
	a.Alloc()
	a.Alloc()
	a.Reset()
	if a.InUse() != 0 {
		t.Errorf("InUse after reset = %d", a.InUse())
	}
	for i := 0; i < 3; i++ {
		if _, ok := a.Alloc(); !ok {
			t.Fatal("alloc after reset failed")
		}
	}
}

func TestAllocatorWidthBounds(t *testing.T) {
	for _, w := range []int{0, MaxPositions + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d: expected panic", w)
				}
			}()
			NewAllocator(w)
		}()
	}
	if NewAllocator(MaxPositions).Width() != MaxPositions {
		t.Error("width accessor")
	}
}

// Simulate the full tag life cycle: allocate, diverge, resolve, commit,
// reuse — checking the invariant that live sibling subtrees remain
// distinguishable at all times.
func TestTagLifecycleWithAllocator(t *testing.T) {
	a := NewAllocator(8)
	type path struct{ tag Tag }
	root := path{Root()}

	p1, _ := a.Alloc()
	left := path{root.tag.WithPosition(p1, true)}
	right := path{root.tag.WithPosition(p1, false)}

	p2, _ := a.Alloc()
	ll := path{left.tag.WithPosition(p2, true)}
	lr := path{left.tag.WithPosition(p2, false)}

	// Resolve divergence 2 as taken: lr is on the wrong path, ll survives.
	if !lr.tag.OnWrongPath(p2, true) || ll.tag.OnWrongPath(p2, true) {
		t.Fatal("resolution of divergence 2")
	}
	// right (sibling of left) must be unaffected by divergence 2.
	if right.tag.OnWrongPath(p2, true) {
		t.Fatal("unrelated path killed by resolution")
	}

	// Branch 2 commits: clear position p2 everywhere and free it.
	ll.tag = ll.tag.ClearPosition(p2)
	left.tag = left.tag.ClearPosition(p2)
	right.tag = right.tag.ClearPosition(p2)
	a.Free(p2)

	// p2 can now be reused for a new divergence below ll.
	p3, ok := a.Alloc()
	if !ok {
		t.Fatal("realloc failed")
	}
	nl := path{ll.tag.WithPosition(p3, true)}
	if !ll.tag.IsAncestorOrSelf(nl.tag) {
		t.Error("reused position breaks ancestry")
	}
	// The old, committed direction must not resurrect: nl relates to left.
	if !left.tag.IsAncestorOrSelf(nl.tag) {
		t.Error("cleared position should not block ancestry")
	}
}

// TestSubtreeMatchesTagPredicates pins the kill buses' precomputed
// matcher to the tag predicates it replaces: SubtreeOf(t) must accept
// exactly t's descendants and WrongSide(p, o) exactly the tags
// OnWrongPath(p, o). It is exhaustive over all 27 tags of a 3-position
// space (each position invalid, not taken or taken), every pair and
// every resolution, then samples random pairs over all 32 positions.
func TestSubtreeMatchesTagPredicates(t *testing.T) {
	check := func(a, b Tag) {
		t.Helper()
		if got, want := SubtreeOf(a).Contains(b), a.IsAncestorOrSelf(b); got != want {
			t.Fatalf("SubtreeOf(%s).Contains(%s) = %v, IsAncestorOrSelf %v", a, b, got, want)
		}
		for pos := 0; pos < MaxPositions; pos++ {
			for _, outcome := range []bool{false, true} {
				if got, want := WrongSide(pos, outcome).Contains(b), b.OnWrongPath(pos, outcome); got != want {
					t.Fatalf("WrongSide(%d, %v).Contains(%s) = %v, OnWrongPath %v", pos, outcome, b, got, want)
				}
			}
		}
	}

	var small []Tag
	for code := 0; code < 27; code++ {
		tg := Root()
		for pos, c := 0, code; pos < 3; pos, c = pos+1, c/3 {
			if c%3 != 0 {
				tg = tg.WithPosition(pos, c%3 == 2)
			}
		}
		small = append(small, tg)
	}
	for _, a := range small {
		for _, b := range small {
			check(a, b)
		}
	}

	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 5000; i++ {
		a := tagFromBits(rng.Uint32(), rng.Uint32())
		b := tagFromBits(rng.Uint32(), rng.Uint32())
		if i%2 == 0 {
			// Half the pairs are related, so both answers are drawn.
			b = a
			for pos := 0; pos < MaxPositions; pos++ {
				if rng.Intn(4) == 0 {
					b = b.WithPosition(pos, rng.Intn(2) == 0)
				}
			}
		}
		check(a, b)
		check(b, a)
	}
}
