package zonediff

import (
	"fmt"
	"maps"
	"net/netip"
	"testing"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// fuzzZones builds two small zones under example. from data, three bytes
// a record: the first says which zone gets it (old, new or both) and its
// owner, the second its type and TTL, the third its data. Few owners,
// types and values, so the two zones share, change and drop RRsets.
func fuzzZones(t *testing.T, data []byte) (old, new *zone.Zone) {
	const origin = dnswire.Name("example.")
	owners := []dnswire.Name{origin, "a.example.", "b.example.", "c.a.example.", "*.b.example."}
	old, new = zone.New(origin), zone.New(origin)
	for ; len(data) >= 3; data = data[3:] {
		owner := owners[int(data[0]>>2)%len(owners)]
		ttl, v := uint32(60*(1+data[1]>>4%2)), data[2]
		var rd dnswire.RData
		switch data[1] % 5 {
		case 0:
			rd = dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, v % 4})}
		case 1:
			rd = dnswire.NS{Host: dnswire.Name(fmt.Sprintf("ns%d.example.", v%3))}
		case 2:
			rd = dnswire.TXT{Strings: []string{fmt.Sprint(v % 4)}}
		case 3:
			rd = dnswire.MX{Preference: uint16(v % 2), Host: "mx.example."}
		default:
			covered := dnswire.TypeA
			if v%2 == 1 {
				covered = dnswire.TypeNS
			}
			rd = dnswire.RRSIG{TypeCovered: covered, Algorithm: 8, Labels: 1, OrigTTL: ttl,
				KeyTag: uint16(v % 3), SignerName: origin, Signature: []byte{v}}
		}
		rr := dnswire.NewRR(owner, ttl, rd)
		for i, z := range []*zone.Zone{old, new} {
			if which := data[0] % 3; which == 2 || int(which) == i {
				if err := z.Add(rr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return old, new
}

// records is z's records in presentation form.
func records(z *zone.Zone) map[string]bool {
	out := make(map[string]bool)
	for _, rr := range z.Records() {
		out[rr.String()] = true
	}
	return out
}

// FuzzRRsetDelta holds RRsetDelta and Diff to map-based references on
// two small zones. A copy of old with the delta applied as a delta link
// is — every removed key's RRset deleted, then every added record
// inserted — must hold exactly new's records, and Diff must count as
// added and removed the records in one zone's set and not the other's.
func FuzzRRsetDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 6, 1, 0, 0, 2, 1, 1, 2, 1})
	f.Add([]byte{0, 0, 1, 1, 0, 2, 5, 4, 0, 6, 4, 1, 10, 3, 0, 14, 0, 3, 17, 16, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		old, new := fuzzZones(t, data)
		was, now := records(old), records(new)

		removed, added := RRsetDelta(old, new)
		got := old.Clone()
		for _, key := range removed {
			got.Remove(key.Name, key.Type)
		}
		for _, rr := range added {
			if err := got.Add(rr); err != nil {
				t.Fatal(err)
			}
		}
		if g := records(got); !maps.Equal(g, now) {
			t.Errorf("old with the delta applied:\n%v\nnew:\n%v\n(removed %v, added %v)", g, now, removed, added)
		}

		var wantAdded, wantRemoved int
		for s := range now {
			if !was[s] {
				wantAdded++
			}
		}
		for s := range was {
			if !now[s] {
				wantRemoved++
			}
		}
		if c := Diff(old, new); c.AddedRRs != wantAdded || c.RemovedRRs != wantRemoved {
			t.Errorf("Diff counts %d added, %d removed; want %d, %d", c.AddedRRs, c.RemovedRRs, wantAdded, wantRemoved)
		}
	})
}
