package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"hique/internal/catalog"
	"hique/internal/plan"
	"hique/internal/sql"
	"hique/internal/storage"
	"hique/internal/tpch"
	"hique/internal/types"
	"hique/internal/volcano"
)

// refs are the expected answers of a run. They come from a catalogue
// generated apart from the served one with the same seed, so writes to
// the served catalogue never touch them: point lookups are read off the
// generated rows, everything else is executed by the volcano engine.
type refs struct {
	lines  answers // by l_orderkey: lineitem point-lookup rows
	orders answers // by o_orderkey: the orders point-lookup row
	ranges answers // by range start index
	groups answers // by group start index
	adhoc  answers // by ad-hoc pool index
	tpch   answers // by TPC-H query number
}

func buildRefs(cfg *config, w *world) (*refs, error) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: cfg.sf, Seed: uint64(cfg.seed)})
	r := &refs{}
	if cfg.spec.name == "tpch-olap" {
		for q, text := range w.tpchSQL {
			rows, err := runVolcano(cat, text)
			if err != nil {
				return nil, fmt.Errorf("Q%d: %w", q, err)
			}
			r.tpch.add(int64(q), rows)
		}
		return r, nil
	}
	if err := pointRows(&r.lines, cat, "lineitem", "l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_shipdate"); err != nil {
		return nil, err
	}
	if err := pointRows(&r.orders, cat, "orders", "o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"); err != nil {
		return nil, err
	}
	for i, lo := range w.rangeLo {
		rows, err := runVolcano(cat, literal(sqlRange, lo, lo+rangeWidth))
		if err != nil {
			return nil, err
		}
		r.ranges.add(int64(i), rows)
	}
	for i, lo := range w.groupLo {
		rows, err := runVolcano(cat, literal(sqlGroup, lo, lo+groupWidth))
		if err != nil {
			return nil, err
		}
		r.groups.add(int64(i), rows)
	}
	for i, q := range w.adhocPool {
		rows, err := runVolcano(cat, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		r.adhoc.add(int64(i), rows)
	}
	return r, nil
}

// answers holds expected answers by key, encoded back to back in one
// byte slice. Held as [][]any, the answers of a serve-mix run were 19
// MiB in 450,000 heap objects, 97% of the objects the garbage collector
// marked in every cycle of the timed phase; encoded, they are a few
// objects it does not scan, and the run's collections cost what the
// served database costs.
type answers struct {
	buf []byte
	at  map[int64][2]int // key -> [start, end) of its answer in buf
}

// add stores rows as key's answer, replacing any earlier one. Cells
// are int64, float64 or string, as cells and datumValue make them.
func (a *answers) add(key int64, rows [][]any) {
	if a.at == nil {
		a.at = map[int64][2]int{}
	}
	start := len(a.buf)
	b := binary.AppendUvarint(a.buf, uint64(len(rows)))
	for _, row := range rows {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, c := range row {
			switch v := c.(type) {
			case int64:
				b = binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(v))
			case float64:
				b = binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(v))
			case string:
				b = append(binary.AppendUvarint(append(b, 's'), uint64(len(v))), v...)
			default:
				panic(fmt.Sprintf("answer cell of type %T", c))
			}
		}
	}
	a.buf = b
	a.at[key] = [2]int{start, len(b)}
}

// rows decodes key's answer into fresh rows; nil when key has none.
func (a *answers) rows(key int64) [][]any {
	at, ok := a.at[key]
	if !ok {
		return nil
	}
	b := a.buf[at[0]:at[1]]
	uvarint := func() int {
		v, n := binary.Uvarint(b)
		b = b[n:]
		return int(v)
	}
	rows := make([][]any, uvarint())
	for i := range rows {
		row := make([]any, uvarint())
		for j := range row {
			kind := b[0]
			b = b[1:]
			switch kind {
			case 'i':
				row[j] = int64(binary.LittleEndian.Uint64(b))
				b = b[8:]
			case 'f':
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(b))
				b = b[8:]
			default:
				n := uvarint()
				row[j] = string(b[:n])
				b = b[n:]
			}
		}
		rows[i] = row
	}
	return rows
}

// row is the first row of key's answer, or nil.
func (a *answers) row(key int64) []any {
	if rows := a.rows(key); len(rows) > 0 {
		return rows[0]
	}
	return nil
}

// keys lists every key with an answer.
func (a *answers) keys() []int64 {
	ks := make([]int64, 0, len(a.at))
	for k := range a.at {
		ks = append(ks, k)
	}
	return ks
}

// literal substitutes integer arguments for the '?' placeholders.
func literal(stmt string, args ...int64) string {
	for _, a := range args {
		stmt = strings.Replace(stmt, "?", fmt.Sprint(a), 1)
	}
	return stmt
}

func runVolcano(cat *catalog.Catalog, q string) ([][]any, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		return nil, err
	}
	out, err := volcano.NewOptimized().Execute(p)
	if err != nil {
		return nil, err
	}
	return cells(out), nil
}

// cells converts a result table the way the server materialises it:
// floats stay floats, strings stay strings, integers and dates are
// integers.
func cells(t *storage.Table) [][]any {
	rows := [][]any{}
	for _, row := range t.Rows() {
		out := make([]any, len(row))
		for i, d := range row {
			out[i] = datumValue(d)
		}
		rows = append(rows, out)
	}
	return rows
}

func datumValue(d types.Datum) any {
	switch d.Kind {
	case types.Float:
		return d.F
	case types.String:
		return d.S
	default:
		return d.I
	}
}

// pointRows stores a table's rows in dst grouped by key column,
// projecting cols.
func pointRows(dst *answers, cat *catalog.Catalog, table, key string, cols ...string) error {
	e, err := cat.Lookup(table)
	if err != nil {
		return err
	}
	s := e.Table.Schema()
	ki := s.ColumnIndex(key)
	idx := make([]int, len(cols))
	for i, c := range cols {
		if idx[i] = s.ColumnIndex(c); idx[i] < 0 {
			return fmt.Errorf("%s has no column %s", table, c)
		}
	}
	m := map[int64][][]any{}
	e.Table.Scan(func(tuple []byte) bool {
		k := s.GetDatum(tuple, ki).I
		row := make([]any, len(idx))
		for i, c := range idx {
			row[i] = datumValue(s.GetDatum(tuple, c))
		}
		m[k] = append(m[k], row)
		return true
	})
	for k, rows := range m {
		dst.add(k, rows)
	}
	return nil
}

// floatTol is the relative tolerance for float cells: parallel and
// fused aggregation may sum in another order than the reference.
const floatTol = 1e-9

// diffRows compares a decoded JSON answer with the expected one, cell
// for cell and in order; it returns "" when they agree.
func diffRows(got, want [][]any) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if !sameCell(got[i][j], w) {
				return fmt.Sprintf("row %d cell %d: %v, want %v", i, j, got[i][j], w)
			}
		}
	}
	return ""
}

func sameCell(got, want any) bool {
	switch w := want.(type) {
	case string:
		g, ok := got.(string)
		return ok && g == w
	case int64:
		g, ok := got.(float64)
		return ok && g == float64(w)
	case float64:
		g, ok := got.(float64)
		if !ok {
			return false
		}
		return math.Abs(g-w) <= floatTol*math.Max(math.Abs(w), 1e-300) || g == w
	}
	return false
}
