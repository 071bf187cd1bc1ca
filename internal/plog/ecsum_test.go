package plog

import (
	"hash/crc32"
	"testing"
)

// paddedColumnSum is an EC data column's checksum as the encoder lays
// the column out: data column i of a zero-padded k-way split.
func paddedColumnSum(data []byte, k, i int) uint32 {
	shardLen := max((len(data)+k-1)/k, 1)
	col := make([]byte, shardLen)
	if start := i * shardLen; start < len(data) {
		copy(col, data[start:min(start+shardLen, len(data))])
	}
	return crc32.Checksum(col, castagnoli)
}

// An EC data column's expected checksum is computed from the extent's
// bytes plus its zero padding without copying the column: it equals
// the padded-copy CRC and the sum recorded at append time for ragged
// extents, the empty one included, and recomputing it allocates
// nothing.
func TestECDataColumnSumWithoutCopy(t *testing.T) {
	_, m := newTestManager(t, 6)
	l, err := m.Create(EC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	k := l.red.K
	sizes := []int{0, 1, k - 1, k, k + 1, 4097}
	for n, size := range sizes {
		if _, _, err := l.Append(payload(size, byte(n))); err != nil {
			t.Fatalf("append %d bytes: %v", size, err)
		}
	}
	l.imu.Lock()
	defer l.imu.Unlock()
	if len(l.extents) != len(sizes) {
		t.Fatalf("%d extents for %d appends", len(l.extents), len(sizes))
	}
	for e, ext := range l.extents {
		for i := 0; i < k; i++ {
			got := l.expectedSumLocked(i, e)
			if want := paddedColumnSum(ext.data, k, i); got != want || got != l.trueSums[e][i] {
				t.Fatalf("%d-byte extent, column %d: sum %08x, padded copy %08x, recorded %08x",
					len(ext.data), i, got, want, l.trueSums[e][i])
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for e := range l.extents {
			for i := 0; i < k; i++ {
				l.expectedSumLocked(i, e)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("verifying every data column allocated %.0f times", allocs)
	}
}
