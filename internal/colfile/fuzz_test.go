package colfile

import (
	"reflect"
	"testing"
)

// FuzzOpen hardens the file parser: arbitrary bytes must never panic,
// and files that parse must scan without panicking. Every column of the
// fuzzed input is also decoded through a Codec that has just decoded a
// valid file, into one reused set of column buffers, and that Codec must
// then still decode the valid file exactly through those buffers: a
// failed or hostile stream leaves no state behind.
func FuzzOpen(f *testing.F) {
	schema := MustSchema("a:int64", "b:string", "c:float64", "d:bool")
	w := NewWriter(schema, 4)
	for i := 0; i < 10; i++ {
		w.Append(Row{IntValue(int64(i)), StringValue("x"), FloatValue(1.5), BoolValue(i%2 == 0)})
	}
	valid, _ := w.Finish()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SLCF"))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data)
		if err != nil {
			return
		}
		n := 0
		r.Scan(func(Row) bool {
			n++
			return n < 10_000
		})
		for g := 0; g < r.NumRowGroups() && g < 100; g++ {
			for c := 0; c < r.Schema().NumFields(); c++ {
				r.GroupStats(g, c)
			}
		}

		var codec Codec
		vr, err := codec.Open(valid)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][][]Value, vr.NumRowGroups())
		for g := range want {
			if want[g], err = vr.ReadGroup(g, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		fr, err := codec.Open(data)
		if err != nil {
			t.Fatal(err) // the same bytes parsed above
		}
		var dst [][]Value
		for g := 0; g < fr.NumRowGroups() && g < 100; g++ {
			dst, _ = fr.ReadGroup(g, nil, dst)
		}
		for g := range want {
			got, err := vr.ReadGroup(g, nil, dst)
			if err != nil || !reflect.DeepEqual(got, want[g]) {
				t.Fatalf("valid group %d after fuzzed input: %v (err %v), want %v", g, got, err, want[g])
			}
			dst = got
		}
	})
}
