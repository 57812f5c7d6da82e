// Incremental: DNS-native zone maintenance over real TCP sockets. A
// resolver-side replica bootstraps with AXFR, then rides daily root-zone
// serials with IXFR (RFC 1995) — moving O(change) instead of O(zone).
// The day .llc entered the root (§5.3's new TLD) arrives as one more
// incremental transfer, with no full transfer after the bootstrap.
//
// Run: go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
	"rootless/internal/zonediff"
)

func main() {
	day0 := time.Date(2018, time.February, 20, 0, 0, 0, 0, time.UTC)

	build := func(at time.Time) *zone.Zone {
		z, err := rootzone.Build(at)
		if err != nil {
			panic(err)
		}
		return z
	}

	// Publisher: an authoritative root server with IXFR journaling.
	srv := authserver.New(build(day0))
	srv.EnableIXFR(16)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.ServeTCP(ctx, l) }()
	addr := l.Addr().String()
	fmt.Printf("publisher serving root zone (serial %d) on %s\n\n", srv.Zone().Serial(), addr)

	// Replica bootstraps with a full AXFR.
	actx, cancelA := context.WithTimeout(ctx, 30*time.Second)
	defer cancelA()
	replica, err := authserver.AXFR(actx, addr, dnswire.Root)
	if err != nil {
		panic(err)
	}
	fullSize := wireSize(replica)
	fmt.Printf("AXFR bootstrap: serial %d, %d records (~%d KB on the wire)\n\n",
		replica.Serial(), replica.Len(), fullSize/1024)

	// Five days of publishing; the replica rides along with IXFR. Day 3
	// (2018-02-23) is the real date the .llc TLD entered the root.
	for d := 1; d <= 5; d++ {
		day := day0.AddDate(0, 0, d)
		srv.SetZone(build(day))
		before := replica.Serial()
		got, incremental, err := authserver.IXFR(addr, replica)
		if err != nil {
			panic(err)
		}
		replica = got
		diff := zonediff.Diff(build(day.AddDate(0, 0, -1)), build(day))
		kind := "IXFR"
		if !incremental {
			kind = "AXFR-fallback"
		}
		fmt.Printf("day %d (%s): %d -> %d via %s; +%d/-%d records",
			d, day.Format("01-02"), before, replica.Serial(), kind,
			diff.AddedRRs, diff.RemovedRRs)
		if len(diff.AddedTLDs) > 0 {
			fmt.Printf("  new TLDs: %v", diff.AddedTLDs)
		}
		fmt.Println()
	}

	// The replica now knows .llc — without ever re-transferring the zone.
	ans := replica.Query("startup.llc.", dnswire.TypeA)
	fmt.Printf("\nreplica answers for .llc: rcode=%s, %d-record referral\n",
		ans.Rcode, len(ans.Authority))
	if replica.Len() != srv.Zone().Len() {
		fmt.Println("BUG: replica diverged from publisher")
		return
	}
	fmt.Printf("replica in sync: %d records, serial %d — moved ~%d KB of deltas instead of %d KB/day of full transfers\n",
		replica.Len(), replica.Serial(), deltaEstimateKB, fullSize/1024)
}

// deltaEstimateKB is printed for context; daily root-zone churn is a few
// records, so each IXFR moves a handful of KB.
const deltaEstimateKB = 5

// wireSize estimates the zone's transfer size from its canonical wire form.
func wireSize(z *zone.Zone) int {
	n := 0
	for _, rr := range z.Records() {
		if w, err := rr.AppendCanonicalWire(nil); err == nil {
			n += len(w)
		}
	}
	return n
}
