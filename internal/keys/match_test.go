package keys_test

import (
	"fmt"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/keys"
)

// TestLookupsAllocationFree pins the compiled matcher: the decomposer,
// the run former and validation call KeyFor, IsKeyed and IsFrontier at
// every document node, so none of them may allocate.
func TestLookupsAllocationFree(t *testing.T) {
	spec := datagen.OMIMSpec()
	paths := []keys.Path{
		{"ROOT"},
		{"ROOT", "Record"},
		{"ROOT", "Record", "Contributors", "Date"},
		{"ROOT", "Record", "Allelic_Variants", "Text"},
		{"ROOT", "Record", "Text", "P"}, // below the frontier: not keyed
	}
	for _, p := range paths {
		allocs := testing.AllocsPerRun(100, func() {
			spec.KeyFor(p)
			spec.IsKeyed(p)
			spec.IsFrontier(p)
		})
		if allocs != 0 {
			t.Errorf("lookups of %s allocate %.1f times per run, want 0", p, allocs)
		}
	}
	if k := spec.KeyFor(keys.Path{"ROOT", "Record"}); k == nil || k.Pattern() != "/ROOT/Record" {
		t.Errorf("KeyFor(/ROOT/Record) = %v, want the Record key", k)
	}
}

// TestSortedKeyPathsCached pins the key-path order composite key values
// use: names ascending, each paired with its index into KeyPaths, cached
// by Normalize so the decomposer's per-node key records allocate nothing
// for it.
func TestSortedKeyPathsCached(t *testing.T) {
	spec := keys.MustParseSpec("(/, (db, {}))\n(/db, (dept, {name, code, @id}))")
	k := spec.KeyFor(keys.Path{"db", "dept"})
	names, order := k.SortedKeyPaths()
	if got := fmt.Sprint(names, order); got != "[@id code name] [2 1 0]" {
		t.Errorf("SortedKeyPaths = %s, want [@id code name] [2 1 0]", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { k.SortedKeyPaths() }); allocs != 0 {
		t.Errorf("SortedKeyPaths allocates %.1f times per call, want 0", allocs)
	}
}
