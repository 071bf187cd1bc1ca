package query

import (
	"testing"

	"streamlake/internal/colfile"
)

// referenceRowMatchesConds is rowMatchesConds as it was before WHERE
// conjuncts were bound once per query: a schema lookup and a literal
// conversion per conjunct per row.
func referenceRowMatchesConds(schema colfile.Schema, row colfile.Row, conds []Cond) bool {
	for _, c := range conds {
		ci := schema.FieldIndex(c.Column)
		if ci < 0 {
			return false
		}
		v, err := literalToValue(schema.Fields[ci].Type, c.Lit)
		if err != nil {
			return false
		}
		cmp := colfile.Compare(row[ci], v)
		switch c.Op {
		case OpEQ:
			if cmp != 0 {
				return false
			}
		case OpLT:
			if cmp >= 0 {
				return false
			}
		case OpLE:
			if cmp > 0 {
				return false
			}
		case OpGT:
			if cmp <= 0 {
				return false
			}
		case OpGE:
			if cmp < 0 {
				return false
			}
		}
	}
	return true
}

// Bound conjuncts select exactly the rows the per-row evaluation did:
// an unknown column or an ill-typed literal matches no row, and strict
// bounds exclude the bound itself on int, float and string columns.
func TestBoundCondsAgreeWithPerRowEvaluation(t *testing.T) {
	schema := colfile.MustSchema("n:int64", "f:float64", "s:string", "b:bool")
	num := func(v float64) Literal { return Literal{Num: v} }
	integer := func(v int64) Literal { return Literal{IsInt: true, Int: v, Num: float64(v)} }
	str := func(v string) Literal { return Literal{IsString: true, Str: v} }
	cases := []struct {
		name  string
		where []Cond
		want  int // rows of the grid matched
	}{
		{"no conjuncts", nil, 40},
		{"unknown column", []Cond{{Column: "ghost", Op: OpGE, Lit: integer(0)}}, 0},
		{"unknown column after a match-all conjunct", []Cond{{Column: "n", Op: OpGE, Lit: integer(0)}, {Column: "ghost", Op: OpEQ, Lit: integer(1)}}, 0},
		{"string literal on an int column", []Cond{{Column: "n", Op: OpLE, Lit: str("9")}}, 0},
		{"number literal on a string column", []Cond{{Column: "s", Op: OpEQ, Lit: integer(1)}}, 0},
		{"bool column", []Cond{{Column: "b", Op: OpEQ, Lit: integer(1)}}, 0},
		{"strict int bounds", []Cond{{Column: "n", Op: OpGT, Lit: integer(10)}, {Column: "n", Op: OpLT, Lit: integer(20)}}, 9},
		{"inclusive int bounds", []Cond{{Column: "n", Op: OpGE, Lit: integer(10)}, {Column: "n", Op: OpLE, Lit: integer(20)}}, 11},
		{"strict float bound", []Cond{{Column: "f", Op: OpLT, Lit: num(1.0)}}, 20},
		{"strict float lower bound", []Cond{{Column: "f", Op: OpGT, Lit: num(0.5)}}, 20},
		{"float literal on an int column", []Cond{{Column: "n", Op: OpLT, Lit: num(3.7)}}, 3},
		{"strict string bound", []Cond{{Column: "s", Op: OpGT, Lit: str("b")}}, 20},
		{"string equality", []Cond{{Column: "s", Op: OpEQ, Lit: str("a")}}, 10},
	}
	for _, tc := range cases {
		bound, ok := bindConds(schema, tc.where)
		got := 0
		for i := 0; i < 40; i++ {
			row := colfile.Row{
				colfile.IntValue(int64(i)),
				colfile.FloatValue(float64(i%4) * 0.5),
				colfile.StringValue([]string{"a", "b", "c", "d"}[i%4]),
				colfile.BoolValue(i%2 == 0),
			}
			m := ok && rowMatchesConds(row, bound)
			if ref := referenceRowMatchesConds(schema, row, tc.where); m != ref {
				t.Fatalf("%s: row %d: bound %v, per-row evaluation %v", tc.name, i, m, ref)
			}
			if m {
				got++
			}
		}
		if got != tc.want {
			t.Fatalf("%s: matched %d rows, want %d", tc.name, got, tc.want)
		}
	}
}
