package pipeline

import (
	"fmt"
	"reflect"
	"unsafe"

	"repro/internal/bpred"
)

// PoisonEntryPool fills a's entry pool with n entries whose every field
// holds junk: each flag is true, each number 5, the state is done, the
// path pointers aim at a live dummy path, and the RAS snapshot buffer has
// rasDepth frames of junk. A machine drawn from a then starts on entries
// that a missing reset would betray. Every field is reached by reflection,
// so a field added to entry is poisoned too; a field of a kind the walk
// does not know panics, so the test is extended with it.
func PoisonEntryPool(a *Arena, n, rasDepth int) {
	dummy := &path{id: 1, seqNo: 5, live: true, fetching: true, pendingBranches: 5}
	for i := 0; i < n; i++ {
		e := new(entry)
		poisonValue(reflect.ValueOf(e).Elem(), dummy, rasDepth)
		e.state = stateDone
		a.entryPool = append(a.entryPool, e)
	}
}

func poisonValue(v reflect.Value, dummy *path, rasDepth int) {
	// Unexported fields are not settable through reflection; re-derive
	// each one from its address.
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			poisonValue(v.Field(i), dummy, rasDepth)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(5)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(5)
	case reflect.Pointer:
		switch v.Type() {
		case reflect.TypeOf(dummy):
			v.Set(reflect.ValueOf(dummy))
		case reflect.TypeOf((*bpred.RAS)(nil)):
			r := bpred.NewRAS(rasDepth)
			for i := 0; i < rasDepth; i++ {
				r.Push(5)
			}
			v.Set(reflect.ValueOf(r))
		default:
			panic(fmt.Sprintf("PoisonEntryPool: no junk for field type %s", v.Type()))
		}
	default:
		panic(fmt.Sprintf("PoisonEntryPool: no junk for field type %s", v.Type()))
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
