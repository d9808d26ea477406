// Package ctxtag implements the PolyPath context-tag scheme of Klauser,
// Paithankar and Grunwald (ISCA '98, Sec. 3.2.1-3.2.2).
//
// A context (CTX) tag encodes the branch history that leads to an execution
// path. Each history position uses 2 bits: a valid bit and a direction bit
// (taken / not taken); an invalid position reads as X ("don't care").
// Tags define a tree-structured inheritance relation between paths: tag A
// is an ancestor of tag B iff every valid position of A is valid in B with
// the same direction. Because the comparison is independent of position
// order, history positions can be assigned round-robin and reused after the
// owning branch commits, without ever re-aligning tags — the property that
// distinguishes this scheme from the 1-bit Adaptive-Branch-Tree encoding,
// which forces in-order branch resolution.
package ctxtag

import (
	"fmt"
	"strings"
)

// MaxPositions is the maximum number of history positions a Tag can hold.
// A Tag packs 2 bits per position into a uint64.
const MaxPositions = 32

// Tag is a context tag: a fixed-width vector of 2-bit history positions.
// The zero Tag has every position invalid (the oldest path, "XXXX..." in
// the paper's notation) and is ready to use.
type Tag struct {
	valid uint32 // bit i set: position i holds a real direction
	dir   uint32 // bit i: direction at position i (1 = taken); meaningful only if valid
}

// Root returns the tag of the oldest path in the pipeline (all positions
// invalid). It equals the zero value; the function exists for readability.
func Root() Tag { return Tag{} }

// WithPosition returns t extended with a branch direction at history
// position pos. This is how a divergent branch creates the tags of its two
// successor paths: parent.WithPosition(p, true) and
// parent.WithPosition(p, false).
func (t Tag) WithPosition(pos int, taken bool) Tag {
	checkPos(pos)
	t.valid |= 1 << uint(pos)
	if taken {
		t.dir |= 1 << uint(pos)
	} else {
		t.dir &^= 1 << uint(pos)
	}
	return t
}

// ClearPosition returns t with history position pos invalidated. The
// pipeline broadcasts this on the branch commit bus: once the branch that
// owns pos commits, every in-flight tag drops that position so it can be
// reused by new branches.
func (t Tag) ClearPosition(pos int) Tag {
	checkPos(pos)
	t.valid &^= 1 << uint(pos)
	t.dir &^= 1 << uint(pos)
	return t
}

// Valid reports whether history position pos holds a real direction.
func (t Tag) Valid(pos int) bool {
	checkPos(pos)
	return t.valid&(1<<uint(pos)) != 0
}

// Taken reports the direction at position pos. It is only meaningful when
// Valid(pos) is true.
func (t Tag) Taken(pos int) bool {
	checkPos(pos)
	return t.dir&(1<<uint(pos)) != 0
}

// PopCount returns the number of valid history positions in t, i.e. the
// path's depth below the oldest unresolved divergence.
func (t Tag) PopCount() int {
	n := 0
	for v := t.valid; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// IsAncestorOrSelf reports whether t is an ancestor of (or equal to) other
// in the path tree: every valid position of t must be valid in other with
// the same direction. This is the hierarchy comparator of Fig. 5; it is
// used by the instruction-window kill logic and by the store buffer's
// forwarding filter.
func (t Tag) IsAncestorOrSelf(other Tag) bool {
	if t.valid&other.valid != t.valid {
		return false
	}
	return (t.dir^other.dir)&t.valid == 0
}

// IsDescendantOrSelf reports whether t is a descendant of (or equal to)
// other.
func (t Tag) IsDescendantOrSelf(other Tag) bool { return other.IsAncestorOrSelf(t) }

// Related reports whether one of the two tags is an ancestor of the other
// (i.e. the paths lie on one line of the tree). Unrelated paths are on
// opposite sides of some divergence and never interact through register or
// memory dataflow.
func (t Tag) Related(other Tag) bool {
	return t.IsAncestorOrSelf(other) || other.IsAncestorOrSelf(t)
}

// OnWrongPath reports whether a tag lies on the wrong side of a branch that
// resolved with the given outcome at history position pos. This is the
// per-window-entry state machine's "resolution" operation: the entry must
// be killed iff its tag has pos valid with the opposite direction.
func (t Tag) OnWrongPath(pos int, outcome bool) bool {
	checkPos(pos)
	return t.Valid(pos) && t.Taken(pos) != outcome
}

// Subtree is a precomputed kill-bus match: the set of tags that hold a
// fixed direction at each position of a fixed mask. Both of the kill
// buses' comparisons take this form, so a sweep builds one Subtree and
// tests every in-flight tag against it with two masked compares.
type Subtree struct {
	mask uint32 // positions the tag must hold
	dir  uint32 // required direction at each position of mask
}

// SubtreeOf matches t and every descendant of t:
// SubtreeOf(t).Contains(u) == t.IsAncestorOrSelf(u).
func SubtreeOf(t Tag) Subtree {
	return Subtree{mask: t.valid, dir: t.dir & t.valid}
}

// WrongSide matches the tags on the wrong side of a branch that resolved
// with the given outcome at history position pos:
// WrongSide(pos, outcome).Contains(u) == u.OnWrongPath(pos, outcome).
func WrongSide(pos int, outcome bool) Subtree {
	checkPos(pos)
	s := Subtree{mask: 1 << uint(pos)}
	if !outcome {
		s.dir = s.mask
	}
	return s
}

// Contains reports whether u lies in the subtree.
func (s Subtree) Contains(u Tag) bool {
	return u.valid&s.mask == s.mask && u.dir&s.mask == s.dir
}

// String renders the tag in the paper's T/N/X notation, position 0 first,
// trimmed to the highest valid position (minimum 4 positions shown).
func (t Tag) String() string {
	hi := 4
	for i := 0; i < MaxPositions; i++ {
		if t.Valid(i) && i+1 > hi {
			hi = i + 1
		}
	}
	var b strings.Builder
	for i := 0; i < hi; i++ {
		switch {
		case !t.Valid(i):
			b.WriteByte('X')
		case t.Taken(i):
			b.WriteByte('T')
		default:
			b.WriteByte('N')
		}
	}
	return b.String()
}

func checkPos(pos int) {
	if pos < 0 || pos >= MaxPositions {
		panic(fmt.Sprintf("ctxtag: position %d out of range [0,%d)", pos, MaxPositions))
	}
}
