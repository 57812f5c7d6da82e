package zone

import "rootless/internal/dnswire"

// HasDescendants exposes the empty-non-terminal test to the external
// differential tests, which compare it with a scan of the whole zone.
func (z *Zone) HasDescendants(name dnswire.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.hasDescendants(name)
}

// RefParse is the reader Parse replaced, for the external differential
// tests.
var RefParse = refParse

// Indexed reports whether the zone currently holds a built index.
func (z *Zone) Indexed() bool { return z.idx.Load() != nil }

// Keyed reports whether the zone's index holds sort keys: whether its
// searches compare bytes rather than names.
func (z *Zone) Keyed() bool {
	ix := z.idx.Load()
	return ix != nil && ix.offs != nil
}

// OwnerNames returns the owner names in map order, for the references
// to sort on their own.
func (z *Zone) OwnerNames() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	names := make([]dnswire.Name, 0, len(z.nodes))
	for n := range z.nodes {
		names = append(names, n)
	}
	return names
}
