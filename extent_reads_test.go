package streamlake_test

import (
	"fmt"
	"testing"
	"time"

	"streamlake"
	"streamlake/internal/colfile"
	"streamlake/internal/rowcodec"
	"streamlake/internal/workload/dpi"
	"streamlake/internal/workload/tpch"
)

// TestWorkloadReadsNeverSpanExtents drives small copies of the three
// benchmark workloads (ingest, analytics, etl) and checks that every
// PLog read they make lies inside one extent: stream slices and table
// files are each one extent, so each read is a zero-copy borrow and
// none is assembled into a fresh buffer. Each workload must also have
// read from plog, so the check is not vacuous.
func TestWorkloadReadsNeverSpanExtents(t *testing.T) {
	for _, w := range []struct {
		name string
		run  func(*testing.T) *streamlake.Lake
	}{
		{"ingest", runIngestLike},
		{"analytics", runAnalyticsLike},
		{"etl", runETLLike},
	} {
		t.Run(w.name, func(t *testing.T) {
			l := w.run(t)
			if n := l.Obs().Snapshot().Counter("plog_read_bytes_total"); n == 0 {
				t.Fatal("the workload never read from plog")
			}
			if n := l.Logs().SpanningReads(); n != 0 {
				t.Fatalf("%d plog reads crossed an extent boundary", n)
			}
		})
	}
}

// runIngestLike produces DPI packets to an 8-stream topic and drains a
// consumer group that polls the flushed slices back.
func runIngestLike(t *testing.T) *streamlake.Lake {
	l, err := streamlake.Open(streamlake.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTopic(streamlake.TopicConfig{Name: "raw", StreamNum: 8}); err != nil {
		t.Fatal(err)
	}
	prod := l.Producer("collector")
	g := dpi.NewGenerator(1)
	for i := 0; i < 5000; i++ {
		k, v, err := g.Packet()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := prod.Send("raw", k, v); err != nil {
			t.Fatal(err)
		}
	}
	cons := l.Consumer("tail")
	if err := cons.Subscribe("raw"); err != nil {
		t.Fatal(err)
	}
	polled := 0
	for {
		msgs, _, err := cons.Poll(128)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		polled += len(msgs)
	}
	if polled != 5000 {
		t.Fatalf("polled %d messages, want 5000", polled)
	}
	return l
}

// runAnalyticsLike preloads a shipmode-partitioned lineitem table and
// runs count and grouped-sum queries through a read cache smaller than
// the table.
func runAnalyticsLike(t *testing.T) *streamlake.Lake {
	l, err := streamlake.Open(streamlake.Config{Seed: 1, CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTable(streamlake.TableMeta{
		Name: "lineitem", Path: "/lake/lineitem",
		Schema: tpch.LineitemSchema, PartitionColumn: "l_shipmode",
	}); err != nil {
		t.Fatal(err)
	}
	rows := tpch.Lineitem(6000, 1)
	for i := 0; i < len(rows); i += 600 {
		if _, err := l.Engine().Insert("lineitem", rows[i:i+600]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushTable("lineitem"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, mode := range []string{"AIR", "MAIL", "SHIP", "TRUCK"} {
			for _, sql := range []string{
				"select count(*) from lineitem where l_shipmode = '" + mode + "' and l_quantity <= 20",
				"select sum(l_quantity) from lineitem where l_shipmode = '" + mode + "' group by l_returnflag",
			} {
				if _, _, err := l.QueryCost(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
		}
	}
	return l
}

// runETLLike runs rounds of the Figure 13 pipeline: produce packets to
// a converting topic, convert, run the DAU query, age the files past
// the demotion window, tier them to HDD, and scrub.
func runETLLike(t *testing.T) *streamlake.Lake {
	l, err := streamlake.Open(streamlake.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	normalize := func(_, value []byte) (colfile.Row, bool) {
		_, rows, err := rowcodec.Decode(value)
		if err != nil || len(rows) != 1 {
			return nil, false
		}
		return dpi.Normalize(rows[0])
	}
	if err := l.CreateTopic(streamlake.TopicConfig{
		Name: "packets", StreamNum: 4,
		Convert: streamlake.ConvertConfig{
			Enabled: true, TableName: "norm", TablePath: "/lake/norm",
			TableSchema: dpi.NormSchema, PartitionColumn: "province",
			SplitOffset: 1 << 40, DeleteMsg: true, Transform: normalize,
		},
	}); err != nil {
		t.Fatal(err)
	}
	prod := l.Producer("collector")
	g := dpi.NewGenerator(1)
	migrated := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 400; i++ {
			row := g.RawRow()
			v, err := rowcodec.Encode(dpi.RawSchema, []colfile.Row{row})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := prod.Send("packets", []byte(fmt.Sprintf("u%d", row[3].Int)), v); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := l.ConvertNow("packets"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.QueryCost(dpi.DAUQuery("norm", 0)); err != nil {
			t.Fatal(err)
		}
		l.Clock().Advance(61 * time.Minute)
		migs, _ := l.RunTiering()
		migrated += len(migs)
		if _, err := l.RunScrub(); err != nil {
			t.Fatal(err)
		}
	}
	if migrated == 0 {
		t.Fatal("tiering migrated nothing")
	}
	return l
}
