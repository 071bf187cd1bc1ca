package streamsvc

import (
	"fmt"
	"sort"
	"testing"

	"streamlake/internal/streamobj"
)

// A multi-stream SendBatch returns its messages grouped by stream in
// ascending stream order, each stream's records in batch order at
// consecutive offsets that continue from the stream's previous batch;
// a batch bound for one stream comes back in batch order.
func TestSendBatchGroupsByStreamInOrder(t *testing.T) {
	s := newService(t, 2)
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: 4}); err != nil {
		t.Fatal(err)
	}
	p := s.Producer("p")
	next := make([]int64, 4) // each stream's next offset
	batches := [][]string{
		{"a", "b", "c", "d", "e", "f", "g", "h", "a", "c", "e", "g", "b"},
		{"k", "k", "k"},
		{"z", "a", "y", "b", "x", "c"},
	}
	for n, keys := range batches {
		recs := make([]streamobj.Record, len(keys))
		for i, k := range keys {
			recs[i] = streamobj.Record{Key: []byte(k), Value: []byte(fmt.Sprintf("%d/%d", n, i))}
		}
		got, _, err := p.SendBatch("t", recs)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, len(recs)) // record indices, stable-sorted by stream
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return routeKey(recs[order[a]].Key, 4) < routeKey(recs[order[b]].Key, 4)
		})
		if len(got) != len(recs) {
			t.Fatalf("batch %d: %d messages for %d records", n, len(got), len(recs))
		}
		for i, ri := range order {
			r, m := recs[ri], got[i]
			idx := routeKey(r.Key, 4)
			if m.Topic != "t" || m.Stream != idx || string(m.Key) != string(r.Key) || string(m.Value) != string(r.Value) ||
				m.Offset != next[idx] || m.Timestamp != s.clock.Now() {
				t.Fatalf("batch %d message %d: %+v, want record %d (%s=%s) on stream %d at offset %d",
					n, i, m, ri, r.Key, r.Value, idx, next[idx])
			}
			next[idx]++
		}
	}
}

// A one-record Send allocates no per-send grouping: no stream map and
// no index slice. What is left is the one-record batch Send builds and
// the result slice, sized once (2 allocs; 3 with the grouping).
func TestSingleRecordSendAllocationCeiling(t *testing.T) {
	s := newService(t, 2)
	if err := s.CreateTopic(TopicConfig{Name: "t", StreamNum: 4}); err != nil {
		t.Fatal(err)
	}
	p := s.Producer("p")
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	val := []byte("value")
	i := 0
	send := func() {
		if _, _, err := p.Send("t", keys[i%len(keys)], val); err != nil {
			t.Fatal(err)
		}
		i++
	}
	send()
	allocs := testing.AllocsPerRun(2000, send)
	t.Logf("one-record Send: %.2f allocs", allocs)
	if allocs > 2.5 {
		t.Fatalf("one-record Send allocates %.2f times, ceiling 2.5", allocs)
	}
}
