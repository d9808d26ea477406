package bpred

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/registry"
)

// Tage is a TAGE-class predictor (Seznec/Michaud): a base bimodal table
// backed by N partially-tagged tables indexed with geometrically increasing
// global-history lengths. The provider is the matching table with the
// longest history; an alternate prediction comes from the next-longest
// match (or the base table).
//
// Provider selection is O(1) in the number of tables: the parallel tag
// compares set one bit per table in a hit bitmap, and a count-leading-zeros
// over the bitmap yields the longest match directly — the bitmap+CLZ
// pattern this repo already uses for window wakeup/select.
//
// Like every predictor here, Tage is a pure pattern table over
// (pc, history): the pipeline owns the per-path speculative history and
// trains at commit with the history that was live at prediction, so Update
// can recompute the provider deterministically from (pc, hist) alone and
// needs no side-band metadata. Allocation on misprediction is likewise
// deterministic (first useful==0 entry in a longer table), keeping
// simulations bit-reproducible.
type Tage struct {
	cfg      TageConfig
	histLens []int // per-table history length, strictly increasing

	base []uint8 // 2-bit counters, 1<<BaseBits entries

	// Tagged-table state, one slice per table, 1<<IdxBits entries each.
	tags   [][]uint16
	ctrs   [][]int8  // 3-bit signed prediction counters in [-4,3]
	useful [][]uint8 // 2-bit useful counters

	idxMask uint64
	tagMask uint16

	// updates counts Update calls for the periodic useful-bit aging of the
	// original TAGE proposal: every UsefulPeriod updates, one of the two
	// useful bits (alternating) is cleared in every entry so stale entries
	// become reclaimable.
	updates  uint64
	ageUpper bool
}

// TageConfig sizes a Tage predictor. TageParams/NormalizeParams fill the
// registry defaults; NewTage validates against the same bounds.
type TageConfig struct {
	BaseBits int // log2 entries of the base bimodal table
	Tables   int // number of tagged tables
	IdxBits  int // log2 entries per tagged table
	TagBits  int // partial tag width
	MinHist  int // shortest tagged history length
	MaxHist  int // longest tagged history length (<= 64: history is one word)
	// UsefulPeriod is the number of updates between useful-bit aging
	// events (0 selects the default 1<<18).
	UsefulPeriod int
}

const defaultUsefulPeriod = 1 << 18

// tageParamSpecs is the registry schema; defaults reproduce the
// iso-storage point matching the repo's default gshare(11).
var tageParamSpecs = []registry.Param{
	{Name: "base_bits", Doc: "log2 base bimodal entries", Min: 2, Max: 28, Default: 10},
	{Name: "tables", Doc: "tagged tables", Min: 1, Max: 16, Default: 4},
	{Name: "idx_bits", Doc: "log2 entries per tagged table", Min: 2, Max: 24, Default: 5},
	{Name: "tag_bits", Doc: "partial tag width", Min: 4, Max: 15, Default: 11},
	{Name: "min_hist", Doc: "shortest tagged history", Min: 1, Max: 64, Default: 4},
	{Name: "max_hist", Doc: "longest tagged history", Min: 1, Max: 64, Default: 64},
}

func tageConfigFromParams(p Params) TageConfig {
	return TageConfig{
		BaseBits: p.Get("base_bits", 10),
		Tables:   p.Get("tables", 4),
		IdxBits:  p.Get("idx_bits", 5),
		TagBits:  p.Get("tag_bits", 11),
		MinHist:  p.Get("min_hist", 4),
		MaxHist:  p.Get("max_hist", 64),
	}
}

// TageStateBytes returns the storage budget of a TAGE configuration:
// 2 bits per base counter plus (tag + 3-bit ctr + 2-bit useful) per tagged
// entry. With the default tag_bits=11 a tagged entry is exactly 16 bits,
// which is what makes the equal-area sweep land exactly on the gshare
// points.
func TageStateBytes(c TageConfig) int {
	baseBits := 2 * (1 << uint(c.BaseBits))
	entryBits := c.TagBits + 3 + 2
	taggedBits := c.Tables * (1 << uint(c.IdxBits)) * entryBits
	return (baseBits + taggedBits) / 8
}

// TageIsoParams returns TAGE parameters sized to exactly the storage of a
// gshare predictor with budgetBits of history (2^budgetBits 2-bit
// counters): half the budget in the base table, half split across four
// tagged tables of 16-bit entries. Valid for budgetBits >= 8; the Figure
// 9-TAGE sweep uses 8..14.
func TageIsoParams(budgetBits int) Params {
	return Params{
		"base_bits": budgetBits - 1,
		"tables":    4,
		"idx_bits":  budgetBits - 6,
		"tag_bits":  11,
		"min_hist":  4,
		"max_hist":  64,
	}
}

// NewTage constructs a TAGE predictor. Configuration errors (tables out of
// range, min >= max history) are reported, never panicked: the registry
// feeds this from validated user input.
func NewTage(c TageConfig) (*Tage, error) {
	if c.UsefulPeriod == 0 {
		c.UsefulPeriod = defaultUsefulPeriod
	}
	switch {
	case c.BaseBits < 2 || c.BaseBits > 28:
		return nil, fmt.Errorf("bpred: tage base_bits %d out of [2,28]", c.BaseBits)
	case c.Tables < 1 || c.Tables > 16:
		return nil, fmt.Errorf("bpred: tage tables %d out of [1,16]", c.Tables)
	case c.IdxBits < 2 || c.IdxBits > 24:
		return nil, fmt.Errorf("bpred: tage idx_bits %d out of [2,24]", c.IdxBits)
	case c.TagBits < 4 || c.TagBits > 15:
		return nil, fmt.Errorf("bpred: tage tag_bits %d out of [4,15]", c.TagBits)
	case c.MinHist < 1 || c.MaxHist > 64 || (c.Tables > 1 && c.MinHist >= c.MaxHist):
		return nil, fmt.Errorf("bpred: tage history schedule min=%d max=%d invalid (need 1 <= min < max <= 64)", c.MinHist, c.MaxHist)
	case c.UsefulPeriod < 1:
		return nil, fmt.Errorf("bpred: tage useful_period %d must be positive", c.UsefulPeriod)
	}
	t := &Tage{
		cfg:      c,
		histLens: geometricHistLens(c.MinHist, c.MaxHist, c.Tables),
		base:     make([]uint8, 1<<uint(c.BaseBits)),
		tags:     make([][]uint16, c.Tables),
		ctrs:     make([][]int8, c.Tables),
		useful:   make([][]uint8, c.Tables),
		idxMask:  (1 << uint(c.IdxBits)) - 1,
		tagMask:  uint16(1<<uint(c.TagBits)) - 1,
	}
	for i := 0; i < c.Tables; i++ {
		t.tags[i] = make([]uint16, 1<<uint(c.IdxBits))
		t.ctrs[i] = make([]int8, 1<<uint(c.IdxBits))
		t.useful[i] = make([]uint8, 1<<uint(c.IdxBits))
	}
	return t, nil
}

// geometricHistLens builds a strictly increasing geometric schedule from
// min to max over n tables (Seznec's L(i) = min * r^i with r chosen so
// L(n-1) = max), e.g. min=4 max=64 n=4 -> [4, 10, 25, 64].
func geometricHistLens(min, max, n int) []int {
	lens := make([]int, n)
	if n == 1 {
		lens[0] = min
		return lens
	}
	ratio := math.Pow(float64(max)/float64(min), 1/float64(n-1))
	prev := 0
	for i := range lens {
		l := int(math.Round(float64(min) * math.Pow(ratio, float64(i))))
		if l <= prev {
			l = prev + 1
		}
		if l > 64 {
			l = 64
		}
		lens[i] = l
		prev = l
	}
	return lens
}

// HistLens exposes the per-table history schedule (for tests and docs).
func (t *Tage) HistLens() []int {
	out := make([]int, len(t.histLens))
	copy(out, t.histLens)
	return out
}

// foldHist compresses the low histLen bits of hist into width bits by
// XOR-folding successive width-bit chunks — the standard TAGE folded
// history, computed directly since history is a single word here.
func foldHist(hist uint64, histLen, width int) uint64 {
	h := hist
	if histLen < 64 {
		h &= (uint64(1) << uint(histLen)) - 1
	}
	var folded uint64
	for histLen > 0 {
		folded ^= h & ((1 << uint(width)) - 1)
		h >>= uint(width)
		histLen -= width
	}
	return folded
}

// index computes table i's entry index for (pc, hist).
func (t *Tage) index(i, pc int, hist uint64) uint64 {
	h := foldHist(hist, t.histLens[i], t.cfg.IdxBits)
	return (uint64(pc) ^ uint64(pc)>>uint(t.cfg.IdxBits) ^ h ^ uint64(i)) & t.idxMask
}

// tag computes table i's partial tag for (pc, hist). Two independent folds
// at different widths decorrelate the tag from the index, so entries that
// collide on index still disambiguate on tag.
func (t *Tage) tag(i, pc int, hist uint64) uint16 {
	h1 := foldHist(hist, t.histLens[i], t.cfg.TagBits)
	h2 := foldHist(hist, t.histLens[i], t.cfg.TagBits-1)
	return uint16(uint64(pc)^h1^(h2<<1)) & t.tagMask
}

// lookup computes the hit bitmap (bit i set when table i's tag matches)
// and returns it with the per-table indices in scratch arrays.
func (t *Tage) lookup(pc int, hist uint64, idxs []uint64) uint32 {
	var hits uint32
	for i := range t.tags {
		idx := t.index(i, pc, hist)
		idxs[i] = idx
		if t.tags[i][idx] == t.tag(i, pc, hist) {
			hits |= 1 << uint(i)
		}
	}
	return hits
}

// provider returns the table index of the longest-history match in the hit
// bitmap, or -1 when only the base table applies. This is the CLZ
// selection: the highest set bit is 31 - LeadingZeros32.
func provider(hits uint32) int {
	if hits == 0 {
		return -1
	}
	return 31 - bits.LeadingZeros32(hits)
}

// altProvider returns the next-longest match below prov, or -1 (base).
func altProvider(hits uint32, prov int) int {
	below := hits & ((1 << uint(prov)) - 1)
	return provider(below)
}

func (t *Tage) baseIndex(pc int) uint64 {
	return uint64(pc) & ((1 << uint(t.cfg.BaseBits)) - 1)
}

func (t *Tage) basePredict(pc int) bool {
	return ctrPredict(t.base[t.baseIndex(pc)])
}

// Predict implements Predictor.
func (t *Tage) Predict(pc int, hist uint64) bool {
	var idxBuf [16]uint64 // Tables <= 16; stays on the stack
	idxs := idxBuf[:len(t.tags)]
	hits := t.lookup(pc, hist, idxs)
	prov := provider(hits)
	if prov < 0 {
		return t.basePredict(pc)
	}
	return t.ctrs[prov][idxs[prov]] >= 0
}

// Update implements Predictor. The provider and alternate are recomputed
// from (pc, hist) — identical to what Predict saw, since predictors are
// trained with the history live at prediction.
func (t *Tage) Update(pc int, hist uint64, taken bool) {
	var idxBuf [16]uint64
	idxs := idxBuf[:len(t.tags)]
	hits := t.lookup(pc, hist, idxs)
	prov := provider(hits)

	var provPred, altPred bool
	if prov < 0 {
		provPred = t.basePredict(pc)
		altPred = provPred
	} else {
		provPred = t.ctrs[prov][idxs[prov]] >= 0
		if alt := altProvider(hits, prov); alt >= 0 {
			altPred = t.ctrs[alt][idxs[alt]] >= 0
		} else {
			altPred = t.basePredict(pc)
		}
	}

	// Train the provider (base counter when no tagged entry matched).
	if prov < 0 {
		bi := t.baseIndex(pc)
		t.base[bi] = ctrUpdate(t.base[bi], taken)
	} else {
		t.ctrs[prov][idxs[prov]] = ctrUpdate3(t.ctrs[prov][idxs[prov]], taken)
		// The useful counter tracks whether the provider beats the
		// alternate: it only moves when they disagree.
		if provPred != altPred {
			u := &t.useful[prov][idxs[prov]]
			if provPred == taken {
				if *u < 3 {
					*u++
				}
			} else if *u > 0 {
				*u--
			}
		}
	}

	// Allocate a longer-history entry on a provider misprediction
	// (deterministically: the first useful==0 slot above the provider; if
	// none, decay their useful counters so a later attempt succeeds).
	if provPred != taken && prov < len(t.tags)-1 {
		t.allocate(prov, pc, hist, taken, idxs)
	}

	t.updates++
	if t.updates%uint64(t.cfg.UsefulPeriod) == 0 {
		t.ageUseful()
	}
}

// allocate installs (pc, hist, taken) into the first entry with useful==0
// in a table with longer history than prov.
func (t *Tage) allocate(prov int, pc int, hist uint64, taken bool, idxs []uint64) {
	for i := prov + 1; i < len(t.tags); i++ {
		if t.useful[i][idxs[i]] == 0 {
			t.tags[i][idxs[i]] = t.tag(i, pc, hist)
			if taken {
				t.ctrs[i][idxs[i]] = 0 // weakly taken
			} else {
				t.ctrs[i][idxs[i]] = -1 // weakly not-taken
			}
			t.useful[i][idxs[i]] = 0
			return
		}
	}
	for i := prov + 1; i < len(t.tags); i++ {
		t.useful[i][idxs[i]]--
	}
}

// ageUseful is the periodic useful-bit reset of the original TAGE: clear
// the upper and lower useful bits alternately across all entries, so
// long-unused entries gracefully become allocation victims.
func (t *Tage) ageUseful() {
	var mask uint8 = 0b01
	if t.ageUpper {
		mask = 0b10
	}
	t.ageUpper = !t.ageUpper
	for i := range t.useful {
		col := t.useful[i]
		for j := range col {
			col[j] &^= mask
		}
	}
}

// ctrUpdate3 is a 3-bit signed saturating counter in [-4,3]; >= 0 predicts
// taken.
func ctrUpdate3(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > -4 {
		return c - 1
	}
	return -4
}

// StateBytes implements Predictor; it agrees with TageStateBytes by
// construction.
func (t *Tage) StateBytes() int { return TageStateBytes(t.cfg) }

// Reset implements Predictor.
func (t *Tage) Reset() {
	for i := range t.base {
		t.base[i] = 0
	}
	for i := range t.tags {
		for j := range t.tags[i] {
			t.tags[i][j] = 0
			t.ctrs[i][j] = 0
			t.useful[i][j] = 0
		}
	}
	t.updates = 0
	t.ageUpper = false
}

func init() {
	MustRegister(Entry{
		Kind:   "tage",
		Doc:    "TAGE: base bimodal + tagged geometric-history tables, CLZ longest-match provider selection",
		Params: tageParamSpecs,
		New: func(p Params, _ Env) (Predictor, error) {
			return NewTage(tageConfigFromParams(p))
		},
		StateBytes: func(p Params) int {
			return TageStateBytes(tageConfigFromParams(p))
		},
	})
}
