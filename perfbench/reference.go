package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"streamlake"
	"streamlake/internal/colfile"
	"streamlake/internal/lakebrain/partition"
	"streamlake/internal/workload/dpi"
)

// The reference evaluators below compute what the lake's answers must
// be straight from the generated rows, with none of the lake's code on
// the path: no colfile, rowcodec, lakehouse or query.

// lineitemQuery is one analytics query: an equality on the partition
// column, the generated range predicates, and either a plain count or a
// sum of sumColumn grouped by groupColumn.
type lineitemQuery struct {
	mode        string
	preds       []partition.Predicate
	groupColumn string // "" = plain COUNT(*)
	sumColumn   string
}

var opSQL = map[partition.Op]string{
	partition.LE: "<=", partition.GE: ">=", partition.LT: "<", partition.GT: ">", partition.EQ: "=",
}

// sql renders the query against table.
func (q lineitemQuery) sql(table string) string {
	var b strings.Builder
	if q.groupColumn == "" {
		b.WriteString("select count(*) from " + table)
	} else {
		fmt.Fprintf(&b, "select sum(%s) from %s", q.sumColumn, table)
	}
	fmt.Fprintf(&b, " where l_shipmode = '%s'", q.mode)
	for _, p := range q.preds {
		fmt.Fprintf(&b, " and %s %s %s", p.Column, opSQL[p.Op], literal(p.Value))
	}
	if q.groupColumn != "" {
		b.WriteString(" group by " + q.groupColumn)
	}
	return b.String()
}

func literal(v colfile.Value) string {
	switch v.Type {
	case colfile.Float64:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case colfile.String:
		return "'" + v.Str + "'"
	}
	return v.String()
}

// matches applies one predicate to a cell.
func matches(cell colfile.Value, p partition.Predicate) bool {
	c := compareValues(cell, p.Value)
	switch p.Op {
	case partition.LE:
		return c <= 0
	case partition.GE:
		return c >= 0
	case partition.LT:
		return c < 0
	case partition.GT:
		return c > 0
	case partition.EQ:
		return c == 0
	}
	return false
}

func compareValues(a, b colfile.Value) int {
	switch a.Type {
	case colfile.Int64:
		return cmp3(a.Int < b.Int, a.Int > b.Int)
	case colfile.Float64:
		return cmp3(a.Float < b.Float, a.Float > b.Float)
	}
	return strings.Compare(a.Str, b.Str)
}

func cmp3(less, greater bool) int {
	switch {
	case less:
		return -1
	case greater:
		return 1
	}
	return 0
}

// evalLineitem is the analytics reference: group → count for a plain
// count, group → sum otherwise. Groups with no matching row are absent,
// as in the engine's answers.
func evalLineitem(schema colfile.Schema, rows []colfile.Row, q lineitemQuery) map[string]float64 {
	modeCol := schema.FieldIndex("l_shipmode")
	cols := make([]int, len(q.preds))
	for i, p := range q.preds {
		cols[i] = schema.FieldIndex(p.Column)
	}
	gi, si := -1, -1
	if q.groupColumn != "" {
		gi, si = schema.FieldIndex(q.groupColumn), schema.FieldIndex(q.sumColumn)
	}
	out := map[string]float64{}
next:
	for _, r := range rows {
		if r[modeCol].Str != q.mode {
			continue
		}
		for i, p := range q.preds {
			if !matches(r[cols[i]], p) {
				continue next
			}
		}
		if gi < 0 {
			out[""]++
			continue
		}
		out[r[gi].String()] += float64(r[si].Int)
	}
	return out
}

// dauCounts is the etl reference: per province, the packets that
// survive dpi.Normalize, hit the finance app, and start on the query's
// day. It adds the counts of rows into acc.
func dauCounts(acc map[string]float64, rows []colfile.Row, day int) {
	lo := dpi.BaseTime + int64(day)*86400
	for _, raw := range rows {
		norm, ok := dpi.Normalize(raw)
		if !ok || norm[0].Str != dpi.FinAppURL {
			continue
		}
		if ts := norm[1].Int; ts >= lo && ts < lo+86400 {
			acc[norm[2].Str]++
		}
	}
}

// checkAnswer compares a query result with the reference: one row per
// group (group first when grouped) carrying the aggregate, exactly.
func checkAnswer(res *streamlake.Result, want map[string]float64, grouped bool) error {
	got := map[string]float64{}
	for _, row := range res.Rows {
		key, cell := "", row[0]
		if grouped {
			if len(row) != 2 {
				return fmt.Errorf("grouped row %q has %d cells, want 2", row, len(row))
			}
			key, cell = row[0], row[1]
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return fmt.Errorf("row %q: %w", row, err)
		}
		if _, dup := got[key]; dup {
			return fmt.Errorf("group %q returned twice", key)
		}
		got[key] = v
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d (%s vs %s)", len(got), len(want), render(got), render(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("group %q = %v, want %v", k, got[k], v)
		}
	}
	return nil
}

func render(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, m[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}
