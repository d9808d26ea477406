package pipeline

import (
	"fmt"
	"reflect"
	"unsafe"

	"repro/internal/bpred"
	"repro/internal/rename"
)

// PoisonArena recycles the finished machine donor into a, then writes
// junk into every element, up to capacity, of every slice the donor
// holds, including the slices inside its struct fields (the ready set,
// the SoA state) and the fields of struct elements (CTX slots, SoA ops,
// the predecode table): each flag true, each number 5, each entry
// pointer a fresh junk entry whose state is done, each path pointer a
// live dummy path, each RAS pointer a stack of rasDepth junk frames and
// each register-map pointer a junk map. n more junk entries join the
// entry pool. A machine built from a then starts on buffers that a
// missing reset would betray. The walk is by reflection, so a slice
// added to Machine is poisoned too; an element type the walk does not
// know panics, so the test is extended with it. The configuration, the
// statistics and the tables behind pointers (memory, free list,
// checkpoints, BTB, allocator, predictor, estimator) are left alone:
// their own Reset methods clear them, and the memory's pages are views
// of a program's data.
func PoisonArena(a *Arena, donor *Machine, n, rasDepth int) {
	donor.Recycle(a)
	j := &junk{
		path:     &path{id: 1, seqNo: 5, live: true, fetching: true, pendingBranches: 5},
		regmap:   new(rename.Map),
		rasDepth: rasDepth,
	}
	j.poison(reflect.ValueOf(j.regmap).Elem())
	v := reflect.ValueOf(&a.m).Elem()
	for i := range v.NumField() {
		switch f := v.Type().Field(i); {
		case f.Name == "cfg" || f.Name == "Stats":
		case f.Type.Kind() == reflect.Slice || f.Type.Kind() == reflect.Struct:
			j.poison(v.Field(i))
		}
	}
	for range n {
		a.m.entryPool = append(a.m.entryPool, j.entry())
	}
}

// junk holds the shared junk values PoisonArena writes.
type junk struct {
	path     *path
	regmap   *rename.Map
	rasDepth int
}

// entry returns a new entry whose every field holds junk.
func (j *junk) entry() *entry {
	e := new(entry)
	j.poison(reflect.ValueOf(e).Elem())
	e.state = stateDone
	return e
}

func (j *junk) poison(v reflect.Value) {
	// Unexported fields are not settable through reflection; re-derive
	// each one from its address.
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			j.poison(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			j.poison(v.Index(i))
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		for i := 0; i < v.Len(); i++ {
			j.poison(v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(5)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(5)
	case reflect.Pointer:
		switch v.Type() {
		case reflect.TypeOf(j.path):
			v.Set(reflect.ValueOf(j.path))
		case reflect.TypeOf(j.regmap):
			v.Set(reflect.ValueOf(j.regmap))
		case reflect.TypeOf((*entry)(nil)):
			v.Set(reflect.ValueOf(j.entry()))
		case reflect.TypeOf((*bpred.RAS)(nil)):
			r := bpred.NewRAS(j.rasDepth)
			for i := 0; i < j.rasDepth; i++ {
				r.Push(5)
			}
			v.Set(reflect.ValueOf(r))
		default:
			panic(fmt.Sprintf("PoisonArena: no junk for type %s", v.Type()))
		}
	default:
		panic(fmt.Sprintf("PoisonArena: no junk for type %s", v.Type()))
	}
}

// SkewTraceCursor moves the record number of the oldest on-trace branch
// or indirect jump in m's window one record on, as a cursor that fell out
// of step with fetch would, and reports whether the window held one.
func SkewTraceCursor(m *Machine) bool {
	for _, e := range m.window {
		if e.onTrace {
			e.traceIdx++
			return true
		}
	}
	return false
}
