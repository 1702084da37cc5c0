// Package memsize estimates the deep memory footprint of Go values by
// walking the object graph with reflection. It plays the role of the
// Pympler library in the paper's memory experiment (Figure 7a), which
// compares the bytes retained by (a) the raw points of the naive method,
// (b) the R-tree and VP-tree index structures, and (c) the model cover.
//
// The estimate counts the value itself plus everything reachable through
// pointers, slices, maps, strings, and interfaces. Shared objects are
// counted once (pointer-identity de-duplication), matching what a heap
// profiler would attribute to the structure.
//
// Only internal/bench imports it, for Figure 7(a). It measures the
// paper's methods, not the running system (benchmark/ reports
// live_heap_mb from the runtime), and stays as long as that figure does.
package memsize

import (
	"reflect"
	"unsafe"
)

// Of returns the estimated deep size of v in bytes. Nil values size to 0.
func Of(v interface{}) int64 {
	if v == nil {
		return 0
	}
	w := walker{seen: make(map[uintptr]bool)}
	rv := reflect.ValueOf(v)
	// The top-level interface header itself is not counted; we measure the
	// value it refers to, mirroring Pympler's asizeof semantics.
	return w.size(rv)
}

type walker struct {
	seen map[uintptr]bool
}

// size returns the deep size of rv, including rv's own storage.
func (w *walker) size(rv reflect.Value) int64 {
	if !rv.IsValid() {
		return 0
	}
	return int64(rv.Type().Size()) + w.indirect(rv)
}

// indirect returns the size of memory reachable from rv but not stored
// inline in it.
func (w *walker) indirect(rv reflect.Value) int64 {
	switch rv.Kind() {
	case reflect.Ptr:
		if rv.IsNil() || !w.mark(rv.Pointer()) {
			return 0
		}
		return w.size(rv.Elem())

	case reflect.Slice:
		if rv.IsNil() || !w.mark(rv.Pointer()) {
			return 0
		}
		// The backing array is Cap elements, of which Len are live and
		// walked; the spare capacity is still retained memory.
		elem := rv.Type().Elem()
		total := int64(rv.Cap()) * int64(elem.Size())
		if hasIndirection(elem) {
			for i := 0; i < rv.Len(); i++ {
				total += w.indirect(rv.Index(i))
			}
		}
		return total

	case reflect.Array:
		var total int64
		if hasIndirection(rv.Type().Elem()) {
			for i := 0; i < rv.Len(); i++ {
				total += w.indirect(rv.Index(i))
			}
		}
		return total

	case reflect.Struct:
		var total int64
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Field(i)
			if hasIndirection(f.Type()) {
				total += w.indirect(f)
			}
		}
		return total

	case reflect.Map:
		if rv.IsNil() || !w.mark(rv.Pointer()) {
			return 0
		}
		// Approximate bucket overhead: Go maps use ~(key+value+1) bytes per
		// slot with buckets sized to the next power of two plus overflow
		// slack; a flat per-entry accounting is adequate for comparisons.
		kt, vt := rv.Type().Key(), rv.Type().Elem()
		perEntry := int64(kt.Size()) + int64(vt.Size()) + 1
		total := int64(float64(rv.Len())*1.3) * perEntry
		iter := rv.MapRange()
		for iter.Next() {
			if hasIndirection(kt) {
				total += w.indirect(iter.Key())
			}
			if hasIndirection(vt) {
				total += w.indirect(iter.Value())
			}
		}
		return total

	case reflect.String:
		// String headers are counted by Size(); the bytes are external.
		return int64(rv.Len())

	case reflect.Interface:
		if rv.IsNil() {
			return 0
		}
		return w.size(rv.Elem())

	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		// Opaque runtime objects: count the header only.
		return 0

	default:
		return 0
	}
}

// mark records a pointer and reports whether it was new.
func (w *walker) mark(p uintptr) bool {
	if p == 0 || w.seen[p] {
		return false
	}
	w.seen[p] = true
	return true
}

// hasIndirection reports whether values of type t can reference memory
// outside their inline storage. Walking is skipped for flat types, which
// keeps sizing large float slices O(1).
func hasIndirection(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasIndirection(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasIndirection(t.Elem())
	default:
		return false
	}
}

// PointerSize is the platform pointer width in bytes, exported for tests
// that reason about expected sizes.
const PointerSize = int64(unsafe.Sizeof(uintptr(0)))
