package isa

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// pagedProgram returns a program whose DataInit has n words, each its
// address plus one, in a memory of words words.
func pagedProgram(n, words int) *Program {
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i + 1)
	}
	return &Program{Name: "paged", Code: []Inst{{Op: Halt}}, DataInit: data, MemWords: words}
}

// zeroPageClean reports whether the shared zero page still reads zero.
func zeroPageClean() bool { return zeroPage == page{} }

func TestMemoryStoreCopiesSharedPage(t *testing.T) {
	p := pagedProgram(2*PageWords, 4*PageWords)
	want := slices.Clone(p.DataInit)
	m := NewMemory(p)
	if m.own[0] || m.own[1] || m.pages[2] != &zeroPage || m.pages[3] != &zeroPage {
		t.Fatal("a fresh memory should share every page")
	}
	if &m.pages[1][0] != &p.DataInit[PageWords] {
		t.Fatal("a full DataInit page should be a view of DataInit")
	}
	m.Store(PageWords+5, -1)
	m.Store(3*PageWords+7, -2)
	if !m.own[1] || !m.own[3] || m.own[0] || m.own[2] {
		t.Fatalf("own = %v, want the two stored pages only", m.own)
	}
	if got := m.Load(PageWords + 5); got != -1 {
		t.Errorf("Load after Store = %d, want -1", got)
	}
	if got := m.Load(PageWords + 6); got != PageWords+7 {
		t.Errorf("copied page lost DataInit: word = %d, want %d", got, PageWords+7)
	}
	if got := m.Load(3*PageWords + 7); got != -2 {
		t.Errorf("Load from a copied zero page = %d, want -2", got)
	}
	if !slices.Equal(p.DataInit, want) {
		t.Error("Store wrote DataInit")
	}
	if !zeroPageClean() {
		t.Error("Store wrote the zero page")
	}
}

func TestMemoryResetRestoresImageAndReusesPages(t *testing.T) {
	p := pagedProgram(PageWords+10, 4*PageWords)
	m := NewMemory(p)
	fresh := NewMemory(p)
	stores := []int{3, PageWords + 2, PageWords + 20, 3*PageWords + 1}
	for _, a := range stores {
		m.Store(a, 99)
	}
	private := map[*page]bool{}
	for i, own := range m.own {
		if own {
			private[m.pages[i]] = true
		}
	}
	m.Reset(p)
	if a := m.Diff(fresh); a >= 0 {
		t.Fatalf("after Reset, word %d = %d, want %d", a, m.Load(a), fresh.Load(a))
	}
	for _, a := range stores {
		m.Store(a, 99)
	}
	for i, own := range m.own {
		if own && !private[m.pages[i]] {
			t.Errorf("page %d was allocated anew, not taken from the pages Reset kept", i)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		m.Reset(p)
		for _, a := range stores {
			m.Store(a, 7)
		}
	}); n != 0 {
		t.Errorf("Reset and Store allocated %v times per run, want 0", n)
	}
}

func TestMemoryDiffFindsLowestAddressAndSkipsSharedPages(t *testing.T) {
	p := pagedProgram(3*PageWords, 8*PageWords)
	a, b := NewMemory(p), NewMemory(p)
	if d := a.Diff(b); d != -1 {
		t.Fatalf("fresh memories differ at %d", d)
	}
	b.Store(6*PageWords+9, 1)
	b.Store(2*PageWords+100, 5)
	a.Store(2*PageWords+300, 5)
	if d := a.Diff(b); d != 2*PageWords+100 {
		t.Errorf("Diff = %d, want %d", d, 2*PageWords+100)
	}
	if d := b.Diff(a); d != 2*PageWords+100 {
		t.Errorf("reversed Diff = %d, want %d", d, 2*PageWords+100)
	}
	// A copied page that still holds its shared contents is equal.
	c, d := NewMemory(p), NewMemory(p)
	c.Store(4, 5)
	if got := c.Diff(d); got != -1 {
		t.Errorf("a page rewritten with its own value differs at %d", got)
	}
	// Shared pages are never read: a page that both memories share, made
	// to differ behind Store's back, is not reported.
	e, f := NewMemory(p), NewMemory(p)
	e.pages[5] = &page{1}
	f.pages[5] = e.pages[5]
	if got := e.Diff(f); got != -1 {
		t.Errorf("Diff read a shared page: differs at %d", got)
	}
}

func TestMemoryDataInitEndingMidPage(t *testing.T) {
	const n = PageWords + 37
	p := pagedProgram(n, 4*PageWords)
	m := NewMemory(p)
	if !m.own[1] || m.own[0] {
		t.Fatalf("own = %v, want only the partly covered page copied", m.own)
	}
	for a := range m.Words() {
		want := int64(0)
		if a < n {
			want = int64(a + 1)
		}
		if got := m.Load(a); got != want {
			t.Fatalf("word %d = %d, want %d", a, got, want)
		}
	}
	m.Store(n, 8)
	m.Reset(p)
	if got := m.Load(n); got != 0 {
		t.Errorf("Reset left the partial page's tail at %d, want 0", got)
	}
	if got := m.Load(n - 1); got != n {
		t.Errorf("Reset lost the partial page's head: %d, want %d", got, n)
	}
}

func TestMemorySmallerThanOnePage(t *testing.T) {
	p := pagedProgram(3, 8)
	m := NewMemory(p)
	if len(m.pages) != 1 || m.Words() != 8 {
		t.Fatalf("%d pages, %d words; want 1 page of 8 words", len(m.pages), m.Words())
	}
	m.Store(7, 70)
	for a, want := range []int64{1, 2, 3, 0, 0, 0, 0, 70} {
		if got := m.Load(a); got != want {
			t.Errorf("word %d = %d, want %d", a, got, want)
		}
	}
	empty := NewMemory(&Program{Code: []Inst{{Op: Halt}}, MemWords: 2})
	if empty.pages[0] != &zeroPage {
		t.Error("a memory with no DataInit should share the zero page")
	}
	empty.Store(1, 4)
	if got := empty.Load(1); got != 4 || !zeroPageClean() {
		t.Errorf("Store to a one-page memory: read %d, zero page clean %v", got, zeroPageClean())
	}
}

// FuzzMemory drives random Reset, Load and Store sequences on two
// memories against flat []int64 models. Every Load must match its
// model, and wherever the two memories are the same size Diff must
// return the first address at which the models differ. DataInit and the
// zero page must never change.
//
// Input layout: byte 0 picks the memory size, bytes 1-6 the DataInit
// lengths of three programs (the third's memory is twice as large), and
// byte 7 seeds their contents. 4-byte ops follow: op, address (2 bytes),
// value or program.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{10, 0x40, 0x02, 0x80, 0x00, 0x10, 0x02, 7, 2, 0, 5, 9, 1, 1, 3, 4, 0, 2, 2, 6, 3, 1, 0, 0})
	f.Add([]byte{2, 3, 0, 1, 0, 1, 0, 1, 2, 0, 1, 5, 3, 0, 1, 5, 0, 1, 0, 0})
	f.Add([]byte{12, 0xff, 0xff, 0, 0, 0xff, 0x1f, 3, 2, 0x10, 0x00, 0, 2, 0x0f, 0xff, 0, 1, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 3, 0, 0, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 8 {
			return
		}
		words := 1 << (in[0] % 13) // 1 to 4096 words: up to 8 pages
		rng := rand.New(rand.NewSource(int64(in[7])))
		progs := make([]*Program, 3)
		for i := range progs {
			size := words
			if i == 2 {
				size *= 2
			}
			n := int(binary.LittleEndian.Uint16(in[1+2*i:])) % (size + 1)
			data := make([]int64, n)
			for j := range data {
				if rng.Intn(4) != 0 {
					data[j] = rng.Int63n(9) - 4
				}
			}
			progs[i] = &Program{Code: []Inst{{Op: Halt}}, DataInit: data, MemWords: size}
		}
		pristine := make([][]int64, len(progs))
		for i, p := range progs {
			pristine[i] = slices.Clone(p.DataInit)
		}
		reset := func(p *Program) []int64 {
			flat := make([]int64, p.MemWords)
			copy(flat, p.DataInit)
			return flat
		}
		mems := []*Memory{NewMemory(progs[0]), NewMemory(progs[1])}
		flats := [][]int64{reset(progs[0]), reset(progs[1])}
		check := func() {
			t.Helper()
			if len(flats[0]) != len(flats[1]) {
				return
			}
			want := -1
			for a := range flats[0] {
				if flats[0][a] != flats[1][a] {
					want = a
					break
				}
			}
			if got := mems[0].Diff(mems[1]); got != want {
				t.Fatalf("Diff = %d, want %d", got, want)
			}
		}
		check()
		for ops := in[8:]; len(ops) >= 4; ops = ops[4:] {
			side := int(ops[0] & 1)
			m, flat := mems[side], flats[side]
			a := int(binary.LittleEndian.Uint16(ops[1:])) % len(flat)
			switch (ops[0] >> 1) % 3 {
			case 0:
				p := progs[int(ops[3])%len(progs)]
				m.Reset(p)
				flats[side] = reset(p)
			case 1:
				v := int64(int8(ops[3])) % 5
				m.Store(a, v)
				flat[a] = v
			case 2:
				if got := m.Load(a); got != flat[a] {
					t.Fatalf("memory %d word %d = %d, want %d", side, a, got, flat[a])
				}
			}
			check()
		}
		for side, m := range mems {
			for a, want := range flats[side] {
				if got := m.Load(a); got != want {
					t.Fatalf("memory %d word %d = %d, want %d", side, a, got, want)
				}
			}
		}
		for i, p := range progs {
			if !slices.Equal(p.DataInit, pristine[i]) {
				t.Fatalf("program %d's DataInit was written", i)
			}
		}
		if !zeroPageClean() {
			t.Fatal("the zero page was written")
		}
	})
}

// packedProgram returns a program with pages packed pages of random
// words, then n DataInit words, each its address plus one, in a memory
// of words words.
func packedProgram(pages, n, words int) *Program {
	p := pagedProgram(n, words)
	rng := rand.New(rand.NewSource(int64(pages)))
	p.Packed = make([]uint64, pages*packedPerPage)
	for i := range p.Packed {
		p.Packed[i] = rng.Uint64()
	}
	return p
}

func TestMemoryLoadsPackedWords(t *testing.T) {
	p := packedProgram(3, PageWords+5, 8*PageWords)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewMemory(p)
	base := p.PackedWords()
	for a := range m.Words() {
		var want int64
		switch {
		case a < base:
			w := p.Packed[a/PackedPerWord]
			want = int64(w >> (PackedBits * (a % PackedPerWord)) & 15)
		case a < base+len(p.DataInit):
			want = int64(a - base + 1)
		}
		if got := m.Load(a); got != want {
			t.Fatalf("word %d = %d, want %d", a, got, want)
		}
	}
	if got := ExpandedPages(p); got != 3 {
		t.Errorf("%d packed pages expanded after reading all 3", got)
	}
	if again := NewMemory(p); again.pages[1] != p.packedPage(1) {
		t.Error("a memory reset after expansion should map the expanded page")
	}
}

func TestMemoryStoreCopiesUnexpandedPackedPage(t *testing.T) {
	p := packedProgram(2, 0, 4*PageWords)
	packed := slices.Clone(p.Packed)
	m := NewMemory(p)
	if m.pages[0] != nil || m.pages[1] != nil {
		t.Fatal("packed pages should stay unmapped until expanded")
	}
	a := PageWords + 9
	want := p.PackedWord(a + 1)
	m.Store(a, -3)
	if !m.own[1] || m.own[0] || ExpandedPages(p) != 1 {
		t.Fatalf("own = %v, %d pages expanded; want page 1 copied from its expansion", m.own, ExpandedPages(p))
	}
	if got := m.Load(a + 1); got != want {
		t.Errorf("copied page lost its packed word: %d, want %d", got, want)
	}
	if got := m.Load(a); got != -3 {
		t.Errorf("Load after Store = %d, want -3", got)
	}
	if got := NewMemory(p).Load(a); got != p.PackedWord(a) {
		t.Errorf("Store wrote the expanded page: another memory reads %d, want %d", got, p.PackedWord(a))
	}
	if !slices.Equal(p.Packed, packed) {
		t.Error("Store wrote Packed")
	}
}

func TestMemoryDiffAcrossPackedExpansion(t *testing.T) {
	p := packedProgram(4, 0, 4*PageWords)
	before := NewMemory(p) // maps no packed page
	before.Load(2 * PageWords)
	after := NewMemory(p) // maps page 2, which before expanded
	if after.pages[2] == nil || before.pages[2] != nil {
		t.Fatal("only the memory reset after the expansion should map it")
	}
	if got := before.Diff(after); got != -1 {
		t.Errorf("Diff = %d between equal memories", got)
	}
	if got := after.Diff(before); got != -1 {
		t.Errorf("Diff = %d between equal memories", got)
	}
	a := 2*PageWords + 100
	after.Store(a, p.PackedWord(a)+1)
	if got := before.Diff(after); got != a {
		t.Errorf("Diff = %d, want %d", got, a)
	}
	before.Store(a, p.PackedWord(a)+1)
	if got := after.Diff(before); got != -1 {
		t.Errorf("Diff = %d after the same store on both sides", got)
	}
	if got := ExpandedPages(p); got != 1 {
		t.Errorf("%d pages expanded, want page 2 only", got)
	}
}

func TestMemoryDiffLeavesUnmappedPackedPagesUnexpanded(t *testing.T) {
	p := packedProgram(4, 10, 8*PageWords)
	m, o := NewMemory(p), NewMemory(p)
	if got := m.Diff(o); got != -1 {
		t.Fatalf("Diff = %d between fresh memories", got)
	}
	if got := ExpandedPages(p); got != 0 {
		t.Fatalf("Diff of fresh memories expanded %d pages", got)
	}
	a := 3*PageWords + 1
	o.Store(a, 99)
	if got := m.Diff(o); got != a {
		t.Errorf("Diff = %d, want %d", got, a)
	}
	if got := ExpandedPages(p); got != 1 {
		t.Errorf("%d pages expanded, want only the stored page", got)
	}
	// Nil pages of two programs are not the same page: Diff expands both.
	q := packedProgram(4, 10, 8*PageWords)
	q.Packed[packedPerPage] ^= 1 // word PageWords
	if got := NewMemory(q).Diff(m); got != PageWords {
		t.Errorf("Diff = %d against another program's image, want %d", got, PageWords)
	}
}

func TestValidateRejectsBadPackedRegion(t *testing.T) {
	ragged := packedProgram(1, 0, 4*PageWords)
	ragged.Packed = ragged.Packed[:packedPerPage-1]
	if err := ragged.Validate(); err == nil {
		t.Error("Validate accepted a packed region of part of a page")
	}
	over := packedProgram(3, PageWords+1, 4*PageWords)
	if err := over.Validate(); err == nil {
		t.Error("Validate accepted a packed region and DataInit past MemWords")
	}
	fits := packedProgram(3, PageWords, 4*PageWords)
	if err := fits.Validate(); err != nil {
		t.Errorf("Validate rejected a packed region and DataInit that fill memory: %v", err)
	}
}
