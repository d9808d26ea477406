package isa

// RefChunkRecords is the number of records in one chunk of a RefTrace.
const RefChunkRecords = 64 * refChunkWords

// RetainedBytes is the memory t's bitmaps, ranks and targets hold,
// capacity included. The chunk list's own headers, 72 bytes per 65,536
// records, are not counted.
func RetainedBytes(t *RefTrace) int {
	n := 4 * cap(t.targets)
	for _, c := range t.chunks {
		n += 8*(cap(c.taken)+cap(c.indirect)) + 4*cap(c.rank)
	}
	return n
}
