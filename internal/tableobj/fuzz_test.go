package tableobj

import (
	"testing"
	"time"

	"streamlake/internal/colfile"
)

// FuzzDecodeCommit hardens the commit-file parser.
func FuzzDecodeCommit(f *testing.F) {
	file := DataFile{
		Path: "p/f1", Partition: "x=1", Rows: 3, Bytes: 100,
		Min: []colfile.Value{colfile.IntValue(1)},
		Max: []colfile.Value{colfile.IntValue(9)},
	}
	valid, _ := EncodeCommit(Commit{ID: 1, Timestamp: time.Second, Ops: []FileOp{{Add: true, File: file}}})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/3])
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCommit(data)
		if err != nil {
			return
		}
		for _, op := range c.Ops {
			if len(op.File.Min) != len(op.File.Max) {
				t.Fatal("asymmetric stats decoded")
			}
		}
	})
}

// FuzzDecodeSnapshot hardens the snapshot-file parser.
func FuzzDecodeSnapshot(f *testing.F) {
	valid, _ := EncodeSnapshot(Snapshot{
		ID: 2, ParentID: 1, Timestamp: time.Second,
		CommitIDs: []int64{1, 2}, RowCount: 5,
	})
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:4])
	lo := []colfile.Value{colfile.IntValue(1), colfile.StringValue("a"), colfile.FloatValue(0.5)}
	hi := []colfile.Value{colfile.IntValue(9), colfile.StringValue("z"), colfile.FloatValue(2.5)}
	withFiles, _ := EncodeSnapshot(Snapshot{
		ID: 3, ParentID: 2, Timestamp: time.Second, CommitIDs: []int64{3}, RowCount: 8,
		Files: []DataFile{
			{Path: "p/f1", Partition: "x=1", Rows: 3, Bytes: 100, Min: lo, Max: hi},
			{Path: "p/f2", Partition: "x=2", Rows: 5, Bytes: 200, Min: lo, Max: hi,
				Zones: []ZoneMap{{Min: lo, Max: hi}, {Min: lo, Max: lo}}},
		},
	})
	f.Add(withFiles)
	f.Add(withFiles[:len(withFiles)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		for _, df := range s.Files {
			if len(df.Min) != len(df.Max) {
				t.Fatal("asymmetric stats decoded")
			}
		}
	})
}
