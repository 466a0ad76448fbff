package engine

import (
	"fmt"

	"veridb/internal/record"
)

// AggFunc enumerates the supported aggregates.
type AggFunc int

const (
	// AggCount is COUNT(expr) or COUNT(*).
	AggCount AggFunc = iota
	// AggSum is SUM(expr).
	AggSum
	// AggAvg is AVG(expr).
	AggAvg
	// AggMin is MIN(expr).
	AggMin
	// AggMax is MAX(expr).
	AggMax
)

// AggFuncByName maps SQL names to functions.
func AggFuncByName(name string) (AggFunc, error) {
	switch name {
	case "COUNT":
		return AggCount, nil
	case "SUM":
		return AggSum, nil
	case "AVG":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	default:
		return 0, fmt.Errorf("engine: unknown aggregate %q", name)
	}
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Func AggFunc
	Arg  *Compiled // nil for COUNT(*)
	Name string    // output column name
}

// resultType of the aggregate column.
func (a AggSpec) resultType() record.Type {
	switch a.Func {
	case AggCount:
		return record.TypeInt
	case AggAvg:
		return record.TypeFloat
	default:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return record.TypeInt
	}
}

// aggState accumulates one aggregate within one group.
type aggState struct {
	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	min     record.Value
	max     record.Value
	started bool
}

func (st *aggState) add(spec AggSpec, v record.Value) error {
	if v.Null {
		return nil // SQL semantics: aggregates skip NULLs
	}
	st.count++
	switch spec.Func {
	case AggCount:
		return nil
	case AggSum, AggAvg:
		switch v.Type {
		case record.TypeInt:
			st.sumI += v.I
			st.sumF += float64(v.I)
		case record.TypeFloat:
			st.isFloat = true
			st.sumF += v.F
		default:
			return fmt.Errorf("engine: SUM/AVG over %s", v.Type)
		}
	case AggMin, AggMax:
		if !st.started {
			st.min, st.max, st.started = v, v, true
			return nil
		}
		if c, err := v.Compare(st.min); err != nil {
			return err
		} else if c < 0 {
			st.min = v
		}
		if c, err := v.Compare(st.max); err != nil {
			return err
		} else if c > 0 {
			st.max = v
		}
	}
	return nil
}

func (st *aggState) result(spec AggSpec) record.Value {
	switch spec.Func {
	case AggCount:
		return record.Int(st.count)
	case AggSum:
		if st.count == 0 {
			return record.Null(spec.resultType())
		}
		if spec.resultType() == record.TypeFloat || st.isFloat {
			return record.Float(st.sumF)
		}
		return record.Int(st.sumI)
	case AggAvg:
		if st.count == 0 {
			return record.Null(record.TypeFloat)
		}
		return record.Float(st.sumF / float64(st.count))
	case AggMin:
		if !st.started {
			return record.Null(spec.resultType())
		}
		return st.min
	case AggMax:
		if !st.started {
			return record.Null(spec.resultType())
		}
		return st.max
	}
	return record.Null(record.TypeInt)
}

// HashAggregate groups the child by GroupBy expressions and computes the
// aggregate columns. Output schema: group columns first (named by their
// source expressions), then aggregate columns. With no GroupBy it emits
// exactly one row (global aggregation), even over empty input.
type HashAggregate struct {
	Child   Operator
	GroupBy []*Compiled
	Names   []string // names for the group columns
	Aggs    []AggSpec

	exec *Exec // statement controls; see SetExec
	out  []record.Tuple
	pos  int
}

// Schema exposes group columns then aggregate columns.
func (h *HashAggregate) Schema() Schema {
	out := make(Schema, 0, len(h.GroupBy)+len(h.Aggs))
	for i, g := range h.GroupBy {
		out = append(out, Col{Name: h.Names[i], Type: g.Type()})
	}
	for _, a := range h.Aggs {
		out = append(out, Col{Name: a.Name, Type: a.resultType()})
	}
	return out
}

// Open drains the child and aggregates.
func (h *HashAggregate) Open() error {
	h.out, h.pos = nil, 0
	type group struct {
		keyVals []record.Value
		states  []aggState
	}
	groups := map[string]*group{}
	var order []string // deterministic output order: first appearance

	if err := h.Child.Open(); err != nil {
		return err
	}
	defer h.Child.Close()
	in := NewRowBatch(h.exec.BatchCap())
	for {
		if err := h.exec.Err(); err != nil {
			return err
		}
		n, err := h.Child.NextBatch(in)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		for r := 0; r < n; r++ {
			t := in.Row(r)
			keyVals := make([]record.Value, len(h.GroupBy))
			for i, g := range h.GroupBy {
				if keyVals[i], err = g.Eval(t); err != nil {
					return err
				}
			}
			gk := groupKey(keyVals)
			gr, ok := groups[gk]
			if !ok {
				gr = &group{keyVals: keyVals, states: make([]aggState, len(h.Aggs))}
				groups[gk] = gr
				order = append(order, gk)
			}
			for i, spec := range h.Aggs {
				v := record.Int(1) // COUNT(*) counts rows
				if spec.Arg != nil {
					if v, err = spec.Arg.Eval(t); err != nil {
						return err
					}
				}
				if err := gr.states[i].add(spec, v); err != nil {
					return err
				}
			}
		}
	}
	if len(groups) == 0 && len(h.GroupBy) == 0 {
		// Global aggregation over empty input: one row of empty states.
		gr := &group{states: make([]aggState, len(h.Aggs))}
		groups[""] = gr
		order = append(order, "")
	}
	for _, gk := range order {
		gr := groups[gk]
		row := make(record.Tuple, 0, len(h.GroupBy)+len(h.Aggs))
		row = append(row, gr.keyVals...)
		for i, spec := range h.Aggs {
			row = append(row, gr.states[i].result(spec))
		}
		h.out = append(h.out, row)
	}
	// The grouped output lives until the statement drains it; the input
	// rows were consumed streaming, so the output buffer is this
	// operator's materialisation footprint.
	return h.exec.ChargeTuples(h.out)
}

// NextBatch emits the next run of group rows.
func (h *HashAggregate) NextBatch(dst *RowBatch) (int, error) {
	return emitRows(h.out, &h.pos, dst)
}

// Close releases the grouped rows.
func (h *HashAggregate) Close() error {
	h.out = nil
	return nil
}
