package keys_test

import (
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
