package isa

// memory.go holds a program's data memory as fixed 4 KiB pages with
// copy-on-write. A run typically stores to a few pages of an image
// hundreds of pages long, so every page starts as a read-only view of the
// program's data, or of the one shared zero page, and is copied only when
// a store first writes it. Building a memory then writes a page table,
// not an image, and two memories of one program differ only in the pages
// either has copied.
//
// The program's packed region has no view: its pages stay unmapped, and
// Load reads an unmapped word straight from Program.Packed. A short run
// reads a few words of streams hundreds of pages long, so decoding costs
// a shift and a mask per load, and a page is decoded only when a store
// copies it.

// PageWords is the number of 64-bit words in one memory page (4 KiB).
const PageWords = 1 << pageShift

const (
	pageShift     = 9
	packedPerPage = PageWords / PackedPerWord // Packed elements per page
)

type page = [PageWords]int64

// zeroPage backs every page that lies past the program's data until a
// store copies it. Nothing writes it.
var zeroPage page

// Memory is a program's word-addressed data memory: the packed region,
// DataInit, then zeros, MemWords words long. Store is its only writer,
// and it copies a shared page before writing to it, so the program's
// data and the zero page are never written. A Memory is not safe for
// concurrent use while it is being written; concurrent Loads and Diffs
// of a finished one are.
type Memory struct {
	// prog resolves the nil pages: the pages of its packed region that
	// this memory has not copied.
	prog  *Program
	pages []*page
	// own marks the pages this memory copied and may write; every other
	// page is a view of the program's data or the zero page.
	own   []bool
	spare []*page // private pages kept by Reset for the next copy
	words int
}

// NewMemory returns p's data memory at reset.
func NewMemory(p *Program) *Memory {
	m := new(Memory)
	m.Reset(p)
	return m
}

// Reset sets m to p's memory at reset; p's data must fit in its MemWords,
// as Validate checks. The packed region's pages stay nil, read from
// p.Packed, and DataInit's full pages become views of it, without
// copying. A page that DataInit only partly covers is copied once, and
// every later page is the shared zero page. The pages m had copied are
// kept for reuse, so a recycled Memory allocates nothing once it has
// held as many private pages as a run needs.
func (m *Memory) Reset(p *Program) {
	for i, own := range m.own {
		if own {
			m.spare = append(m.spare, m.pages[i])
		}
	}
	n := (p.MemWords + PageWords - 1) >> pageShift
	if cap(m.pages) < n {
		m.pages = make([]*page, n)
		m.own = make([]bool, n)
	}
	if n < len(m.pages) {
		clear(m.pages[n:]) // drop views into an earlier program's data
	}
	m.pages, m.own = m.pages[:n], m.own[:n]
	clear(m.own)
	base := len(p.Packed) / packedPerPage
	clear(m.pages[:base])
	full := len(p.DataInit) >> pageShift
	for i := range full {
		m.pages[base+i] = (*page)(p.DataInit[i<<pageShift:])
	}
	for i := base + full; i < n; i++ {
		m.pages[i] = &zeroPage
	}
	if tail := p.DataInit[full<<pageShift:]; len(tail) > 0 {
		pg := m.privatePage()
		clear(pg[copy(pg[:], tail):])
		m.pages[base+full], m.own[base+full] = pg, true
	}
	m.prog, m.words = p, p.MemWords
}

// Words returns the memory size in words.
func (m *Memory) Words() int { return m.words }

// Load returns the word at address a, which must lie in [0, Words()).
func (m *Memory) Load(a int) int64 {
	pg := m.pages[a>>pageShift]
	if pg == nil {
		return m.prog.PackedWord(a)
	}
	return pg[a&(PageWords-1)]
}

// Store writes v to address a, which must lie in [0, Words()), copying
// a's page first if m still shares it, or decoding it if it is an
// unmapped packed page.
func (m *Memory) Store(a int, v int64) {
	i := a >> pageShift
	if !m.own[i] {
		pg := m.privatePage()
		if src := m.pages[i]; src != nil {
			*pg = *src
		} else {
			for j := range pg {
				pg[j] = m.prog.PackedWord(i<<pageShift | j)
			}
		}
		m.pages[i], m.own[i] = pg, true
	}
	m.pages[i][a&(PageWords-1)] = v
}

// privatePage returns a page m may write: a spare one or a new one. Its
// contents are stale; the caller overwrites them.
func (m *Memory) privatePage() *page {
	if n := len(m.spare); n > 0 {
		pg := m.spare[n-1]
		m.spare = m.spare[:n-1]
		return pg
	}
	return new(page)
}

// Diff returns the lowest address at which m and o hold different words,
// or -1 when they are equal; the two must be the same size. A page both
// point at (a view of the program's data, or the zero page) is equal by
// construction and skipped, and so is a packed page that neither memory
// of one program has copied. After a run Diff reads only the pages either
// side copied.
func (m *Memory) Diff(o *Memory) int {
	for i, pg := range m.pages {
		opg := o.pages[i]
		if pg == opg && (pg != nil || m.prog == o.prog) {
			continue
		}
		if pg != nil && opg != nil && *pg == *opg {
			continue
		}
		for a := i << pageShift; a < (i+1)<<pageShift; a++ {
			if m.Load(a) != o.Load(a) {
				return a
			}
		}
	}
	return -1
}
