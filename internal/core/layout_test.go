package core

import (
	"reflect"
	"testing"
	"unsafe"

	"beholder/internal/probe"
)

// pointerFree reports the path to the first pointer-bearing part of t —
// a pointer, slice, map, string, interface, channel or function — or ""
// when t holds none, so the garbage collector never scans a value of it.
func pointerFree(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if p := pointerFree(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		if t.Len() == 0 {
			return ""
		}
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return path + " (" + t.Kind().String() + ")"
	}
	return ""
}

// TestStoreLayoutPointerFree: what a result store grows with its results
// — trace rows and their slabs, the canonical index entries, the hop and
// unreachable arenas — and a shard's first-seen entries hold no pointer,
// and a trace row fits one 64-byte cache line, so a 64-row slab is one
// 4 096-byte allocation.
func TestStoreLayoutPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(probe.Trace{}); n > 64 {
		t.Errorf("probe.Trace is %d bytes, want <= 64", n)
	}
	store := reflect.TypeOf(probe.Store{})
	elem := map[string]int{ // field -> slice/pointer levels down to the element
		"blocks":    2,
		"traceIdx":  1,
		"ifaceIdx":  1,
		"hopChunks": 2,
		"unreach":   1,
	}
	for name, depth := range elem {
		f, ok := store.FieldByName(name)
		if !ok {
			t.Fatalf("probe.Store has no field %s", name)
		}
		et := f.Type
		for range depth {
			et = et.Elem()
		}
		if p := pointerFree(et, "Store."+name); p != "" {
			t.Errorf("store element %s holds a pointer: %s", et, p)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(probe.Trace{}), reflect.TypeOf(ifaceSeen{})} {
		if p := pointerFree(typ, typ.Name()); p != "" {
			t.Errorf("%s holds a pointer: %s", typ, p)
		}
	}
}
