package plog

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"streamlake/internal/pool"
	"streamlake/internal/sim"
)

// Payload shape of the allocation and retention tests: 256 appends of
// 64 KiB, 16 MiB in all, into one log.
const (
	bigAppends = 256
	bigPayload = 64 << 10
)

func newBigLog(t *testing.T) *PLog {
	t.Helper()
	p := pool.New("plogtest-big", sim.NewClock(), sim.NVMeSSD, 3, 1<<20)
	l, err := NewManager(p, 2*bigAppends*bigPayload).Create(ReplicateN(3))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAppendCopiesEachByteOnce pins the append's allocation cost: each
// payload is copied once, into its extent's own exact-size buffer. A log
// holding its whole stream in one growing slice reallocates and copies
// the stream every time it outgrows its capacity, about 5x the bytes
// appended in all.
func TestAppendCopiesEachByteOnce(t *testing.T) {
	l := newBigLog(t)
	payload := bytes.Repeat([]byte("extent!"), bigPayload/7+1)[:bigPayload]
	const perAppend = 2 << 10 // checksums, sidecar map entries, extent-slice growth
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < bigAppends; i++ {
		if _, _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	appended := uint64(bigAppends * bigPayload)
	limit := appended*11/10 + bigAppends*perAppend
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("appending %d bytes allocated %d (%.3fx)", appended, got, float64(got)/float64(appended))
	if got > limit {
		t.Fatalf("appending %d bytes allocated %d (%.2fx), ceiling %d",
			appended, got, float64(got)/float64(appended), limit)
	}
}

// TestBorrowsPinOnlyTheirExtent holds a Read borrow of every extent
// while the log keeps growing: each borrow may keep only its own extent
// alive, so after a collection the live heap is about the bytes
// appended. A borrow into a single growing slice would pin the whole
// buffer generation it was taken from, every superseded generation
// included.
func TestBorrowsPinOnlyTheirExtent(t *testing.T) {
	payload := make([]byte, bigPayload)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	l := newBigLog(t)
	borrows := make([][]byte, 0, bigAppends)
	for i := 0; i < bigAppends; i++ {
		payload[0], payload[bigPayload-1] = byte(i), byte(i>>8)
		off, _, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := l.Read(off, bigPayload)
		if err != nil {
			t.Fatal(err)
		}
		borrows = append(borrows, b)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	for i, b := range borrows {
		if b[0] != byte(i) || b[bigPayload-1] != byte(i>>8) {
			t.Fatalf("borrow %d changed under later appends", i)
		}
	}
	appended := uint64(bigAppends * bigPayload)
	var live uint64
	if m1.HeapAlloc > m0.HeapAlloc {
		live = m1.HeapAlloc - m0.HeapAlloc
	}
	t.Logf("live heap grew %d for %d bytes appended (%.3fx)", live, appended, float64(live)/float64(appended))
	if limit := appended * 13 / 10; live > limit {
		t.Fatalf("live heap grew %d for %d bytes appended (%.2fx), ceiling %d",
			live, appended, float64(live)/float64(appended), limit)
	}
	runtime.KeepAlive(l)
	runtime.KeepAlive(borrows)
}

// spanPayloads are the extents of the boundary tests: odd sizes, so EC
// shard columns pad, and a one-byte extent in the middle.
var spanPayloads = []int{700, 1031, 1, 2048, 333}

// spanRead is one read of the boundary tests.
type spanRead struct {
	name   string
	off, n int64
}

// spanReads builds reads that start mid-extent and cover one, two,
// three, or every extent of a log appended from spanPayloads.
func spanReads() []spanRead {
	var ends []int64
	var end int64
	for _, s := range spanPayloads {
		end += int64(s)
		ends = append(ends, end)
	}
	return []spanRead{
		{"one", 100, 200},
		{"two", 500, ends[0] + 400 - 500},
		{"two-ending-at-boundary", 350, ends[1] - 350},
		{"through-one-byte-extent", ends[0] + 5, ends[2] + 10 - (ends[0] + 5)},
		{"all", 3, end - 3 - 7},
		{"whole-log", 0, end},
	}
}

// appendSpanLog builds a log of policy red whose extents hold distinct
// bytes, returning it and the concatenated payloads.
func appendSpanLog(t *testing.T, m *Manager, red Redundancy) (*PLog, []byte) {
	t.Helper()
	l, err := m.Create(red)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for e, size := range spanPayloads {
		p := compressible(size)
		p[0] = byte('A' + e)
		if _, _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		all = append(all, p...)
	}
	return l, all
}

func redName(red Redundancy) string {
	if red.Kind == ErasureCode {
		return fmt.Sprintf("ec%d+%d", red.K, red.M)
	}
	return fmt.Sprintf("replicate%d", red.Replicas)
}

// extentOf returns the index of the extent holding logical byte off.
func extentOf(off int64) int {
	var end int64
	for e, s := range spanPayloads {
		end += int64(s)
		if off < end {
			return e
		}
	}
	return len(spanPayloads) - 1
}

func TestReadsAcrossExtentBoundaries(t *testing.T) {
	for _, red := range []Redundancy{ReplicateN(3), EC(4, 2)} {
		t.Run(redName(red), func(t *testing.T) {
			m := newManager(t, 6)
			l, all := appendSpanLog(t, m, red)
			spanning := 0
			for _, r := range spanReads() {
				got, _, err := l.Read(r.off, r.n)
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				if !bytes.Equal(got, all[r.off:r.off+r.n]) {
					t.Fatalf("%s: read [%d,+%d) differs from the appended payloads", r.name, r.off, r.n)
				}
				if extentOf(r.off) != extentOf(r.off+r.n-1) {
					spanning++
				}
			}
			if got := m.SpanningReads(); got != int64(spanning) {
				t.Fatalf("SpanningReads %d, want %d", got, spanning)
			}

			// A single-extent read is still a full-capped borrow that two
			// reads share; the extent's bytes are never rewritten.
			a, _, _ := l.Read(800, 100)
			b, _, _ := l.Read(800, 100)
			if &a[0] != &b[0] || cap(a) != len(a) {
				t.Fatalf("single-extent read is not a shared full-capped borrow: cap=%d len=%d", cap(a), len(a))
			}
			// A spanning read is private: two of them never alias.
			c, _, _ := l.Read(500, 400)
			d, _, _ := l.Read(500, 400)
			if &c[0] == &d[0] {
				t.Fatal("spanning reads share a buffer")
			}
		})
	}
}

// TestSpanningReadFallsBackFromEitherExtent corrupts one copy of the
// first, then of the last, extent a spanning read covers: with
// verification on the read falls back to a healthy copy and returns the
// true bytes; with it off the corrupt copy is served, its flipped bit at
// the start of the corrupt extent (or of the read, if the extent begins
// before it).
func TestSpanningReadFallsBackFromEitherExtent(t *testing.T) {
	const off, n = 500, 1000 // extents 0 and 1
	for _, red := range []Redundancy{ReplicateN(3), EC(4, 2)} {
		for _, ext := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/extent%d/verify", redName(red), ext), func(t *testing.T) {
				m := newManager(t, 6)
				l, all := appendSpanLog(t, m, red)
				if ok, err := l.CorruptCopy(0, ext); !ok || err != nil {
					t.Fatalf("corrupt: %v %v", ok, err)
				}
				got, _, err := l.Read(off, n)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, all[off:off+n]) {
					t.Fatal("verified read returned corrupt bytes")
				}
				if st := l.IntegrityStats(); st.Mismatches != 1 || st.FallbackReads != 1 {
					t.Fatalf("integrity stats %+v, want one mismatch and one fallback", st)
				}
			})
			t.Run(fmt.Sprintf("%s/extent%d/noverify", redName(red), ext), func(t *testing.T) {
				m := newManager(t, 6)
				m.SetVerifyOnRead(false)
				l, all := appendSpanLog(t, m, red)
				if ok, err := l.CorruptCopy(0, ext); !ok || err != nil {
					t.Fatalf("corrupt: %v %v", ok, err)
				}
				got, _, err := l.Read(off, n)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]byte(nil), all[off:off+n]...)
				pos := int64(0)
				if ext == 1 {
					pos = int64(spanPayloads[0]) - off
				}
				want[pos] ^= 0x01
				if !bytes.Equal(got, want) {
					t.Fatalf("unverified read of corrupt extent %d: bit not flipped at %d", ext, pos)
				}
				// Serving the corrupt copy never touches the extent's bytes.
				if e := l.extents[ext]; !bytes.Equal(e.data, all[e.off:e.off+e.len]) {
					t.Fatal("serving a corrupt copy rewrote the extent's bytes")
				}
			})
		}
	}
}

// TestSpanningReadsAfterCompressingMigrate reads the boundary ranges
// back after the log's extents were compressed onto a cold pool: the
// bytes are identical to those before the move.
func TestSpanningReadsAfterCompressingMigrate(t *testing.T) {
	for _, red := range []Redundancy{ReplicateN(3), EC(4, 2)} {
		t.Run(redName(red), func(t *testing.T) {
			m := newManager(t, 6)
			hdd := newHDDPool(6)
			m.SetCompression(hdd)
			l, all := appendSpanLog(t, m, red)
			l.Seal()
			if _, err := l.Migrate(hdd); err != nil {
				t.Fatal(err)
			}
			if !l.Compressed() {
				t.Fatal("log not compressed after migrating to the cold pool")
			}
			for _, r := range spanReads() {
				got, _, err := l.Read(r.off, r.n)
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				if !bytes.Equal(got, all[r.off:r.off+r.n]) {
					t.Fatalf("%s: compressed read [%d,+%d) differs", r.name, r.off, r.n)
				}
			}
		})
	}
}
