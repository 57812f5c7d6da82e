package zonediff

import (
	"slices"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

func d(y int, m time.Month, day int) time.Time {
	return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
}

func build(t *testing.T, at time.Time) *zone.Zone {
	t.Helper()
	z, err := rootzone.Build(at)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestDiffIdenticalZones(t *testing.T) {
	a := build(t, d(2019, time.April, 1))
	b := build(t, d(2019, time.April, 1))
	c := Diff(a, b)
	if len(c.AddedTLDs) != 0 || len(c.RemovedTLDs) != 0 || c.AddedRRs != 0 || c.RemovedRRs != 0 {
		t.Errorf("identical zones diff: %+v", c)
	}
}

func TestDiffAcrossApril2019(t *testing.T) {
	a := build(t, d(2019, time.April, 1))
	b := build(t, d(2019, time.April, 30))
	c := Diff(a, b)
	// The paper: one TLD deleted during April 2019.
	if len(c.RemovedTLDs) != 1 {
		t.Errorf("removed TLDs = %v, want exactly 1", c.RemovedTLDs)
	}
}

func TestReachabilityFreshZone(t *testing.T) {
	a := build(t, d(2019, time.April, 1))
	r := CheckReachability(a, a)
	if r.Reachable != r.Total || len(r.Broken) != 0 {
		t.Errorf("fresh zone: %d/%d reachable, broken %v", r.Reachable, r.Total, r.Broken)
	}
	if r.ReachableShare() != 1 {
		t.Errorf("share = %f", r.ReachableShare())
	}
}

func TestReachabilityMonthStale(t *testing.T) {
	// §5.2: a zone one month out of date keeps 99.6% of TLDs reachable —
	// all but the ~5 rotating ones.
	stale := build(t, d(2019, time.April, 1))
	truth := build(t, d(2019, time.May, 1))
	r := CheckReachability(stale, truth)
	share := r.ReachableShare()
	if share < 0.99 || share >= 1.0 {
		t.Errorf("month-stale share = %.4f, want ~0.996", share)
	}
	brokenOld := 0
	for _, tld := range r.Broken {
		if info, ok := rootzone.Find(tld); ok && info.Rotating {
			brokenOld++
		}
	}
	if brokenOld < 4 {
		t.Errorf("expected the rotating TLDs among broken; got %v", r.Broken)
	}
}

func TestReachabilityTwoWeeksStale(t *testing.T) {
	// §5.2: rotation overlap guarantees full reachability within 14 days.
	stale := build(t, d(2019, time.April, 1))
	truth := build(t, d(2019, time.April, 14))
	r := CheckReachability(stale, truth)
	for _, tld := range r.Broken {
		if info, ok := rootzone.Find(tld); ok && info.Rotating {
			t.Errorf("rotating TLD %s broken at 14 days despite overlap", tld)
		}
	}
	if r.ReachableShare() < 0.995 {
		t.Errorf("14-day share = %.4f", r.ReachableShare())
	}
}

func TestReachabilityYearStale(t *testing.T) {
	// §5.2: a year-old zone loses ~50 TLDs (~3.3%): churners, rotators
	// and new additions.
	stale := build(t, d(2018, time.April, 1))
	truth := build(t, d(2019, time.April, 1))
	r := CheckReachability(stale, truth)
	share := r.ReachableShare()
	if share < 0.93 || share > 0.99 {
		t.Errorf("year-stale share = %.4f, want ~0.967", share)
	}
	// Paper: ~50 TLDs (3.3%) lose reachability over a year — the rotating
	// TLDs plus the annual churners.
	if n := len(r.Broken); n < 25 || n > 90 {
		t.Errorf("broken after a year = %d, want ~50", n)
	}
	// llc. was added 2018-02-23, so it exists in both — never missing.
	for _, tld := range r.Missing {
		if tld == "llc." {
			t.Error("llc. should exist in the April 2018 zone")
		}
	}
}

func TestDiffDetectsAdditionsAndChanges(t *testing.T) {
	old := build(t, d(2018, time.February, 1))
	new := build(t, d(2018, time.April, 11))
	c := Diff(old, new)
	found := false
	for _, tld := range c.AddedTLDs {
		if tld == "llc." {
			found = true
		}
	}
	if !found {
		t.Errorf("llc. not in added TLDs: %v", c.AddedTLDs)
	}
	if c.AddedRRs == 0 {
		t.Error("no added records across two months")
	}
}

// diffReference is Diff as it was before it became one zone.DiffOwners
// pass: the two zones' delegation sets and whole-zone sets of record
// strings, compared as sets. TestDiffMatchesReference holds Diff to it.
func diffReference(old, new *zone.Zone) Changes {
	var c Changes
	oldTLDs, newTLDs := nameSet(old.Delegations()), nameSet(new.Delegations())
	for tld := range newTLDs {
		if !oldTLDs[tld] {
			c.AddedTLDs = append(c.AddedTLDs, tld)
		}
	}
	for tld := range oldTLDs {
		if !newTLDs[tld] {
			c.RemovedTLDs = append(c.RemovedTLDs, tld)
		}
	}
	oldAll, newAll := recordSet(old), recordSet(new)
	for s := range newAll {
		if !oldAll[s] {
			c.AddedRRs++
		}
	}
	for s := range oldAll {
		if !newAll[s] {
			c.RemovedRRs++
		}
	}
	sortNames(c.AddedTLDs)
	sortNames(c.RemovedTLDs)
	return c
}

func nameSet(names []dnswire.Name) map[dnswire.Name]bool {
	out := make(map[dnswire.Name]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

func recordSet(z *zone.Zone) map[string]bool {
	out := make(map[string]bool)
	for _, rr := range z.Records() {
		out[rr.String()] = true
	}
	return out
}

// TestDiffMatchesReference: the DiffOwners pass reports what the
// whole-zone set comparison did, forwards, backwards and on equal zones.
func TestDiffMatchesReference(t *testing.T) {
	apr1, apr30 := build(t, d(2019, time.April, 1)), build(t, d(2019, time.April, 30))
	feb, apr := build(t, d(2018, time.February, 1)), build(t, d(2018, time.April, 11))
	for _, tc := range []struct {
		name     string
		old, new *zone.Zone
	}{
		{"2019-04-01 to 2019-04-30", apr1, apr30},
		{"2018-02-01 to 2018-04-11", feb, apr},
		{"identical", apr1, build(t, d(2019, time.April, 1))},
		{"backwards", apr, feb},
	} {
		got, want := Diff(tc.old, tc.new), diffReference(tc.old, tc.new)
		if !slices.Equal(got.AddedTLDs, want.AddedTLDs) || !slices.Equal(got.RemovedTLDs, want.RemovedTLDs) ||
			got.AddedRRs != want.AddedRRs || got.RemovedRRs != want.RemovedRRs {
			t.Errorf("%s: Diff %+v, reference %+v", tc.name, got, want)
		}
		t.Logf("%s: +%d/-%d TLDs, +%d/-%d records", tc.name,
			len(got.AddedTLDs), len(got.RemovedTLDs), got.AddedRRs, got.RemovedRRs)
	}
}
