package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"rootless/internal/dist"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zonediff"
)

// DistributionLoad reproduces §5.2's cost analysis: each resolver
// downloads a ~1.1 MB compressed zone every two days; a signed delta
// chain moves a day's changes at a fraction of that, in bytes and in
// signature checks; doubling the TTL (refresh interval) halves the full
// fetches; and the whole budget is dwarfed by the SpamHaus feed ICSI
// already consumes (3.1 GB/day).
func DistributionLoad() Result {
	signer := testbedSigner()
	mirror := dist.NewMirror(signer, 16)
	publish := func(at time.Time) error {
		z, err := rootzone.Build(at)
		if err != nil {
			return err
		}
		if err := signer.SignZone(z, at); err != nil {
			return err
		}
		return mirror.Publish(z)
	}

	// Publish five consecutive daily snapshots (signed zones).
	base := ymd(2019, time.June, 3)
	for d := 0; d < 5; d++ {
		if err := publish(base.AddDate(0, 0, d)); err != nil {
			return Result{ID: "t_dist", Title: "Distribution load", Notes: err.Error()}
		}
	}

	srv := httptest.NewServer(mirror)
	defer srv.Close()
	ctx := context.Background()

	// Full bundle fetch: the every-two-days unit cost.
	client := dist.NewHTTPClient(srv.URL)
	bundle, err := client.Fetch(ctx)
	if err != nil {
		return Result{ID: "t_dist", Title: "Distribution load", Notes: err.Error()}
	}
	fullMB := float64(len(bundle.Compressed)) / (1 << 20)
	perDayMB := fullMB / 2 // one fetch per two days

	// Signed delta chain: reset the mirror's history to a clean
	// two-snapshot walk; the client rebuilds yesterday's signed snapshot
	// (deterministic signer), fetches the one-link chain to today, and
	// applies it with incremental verification — transfer and signature
	// work are both O(delta), where the full bundle is O(zone).
	for d := 0; d < 2; d++ {
		if err := publish(base.AddDate(0, 0, d)); err != nil {
			return Result{ID: "t_dist", Title: "Distribution load", Notes: err.Error()}
		}
	}
	z0, err := rootzone.Build(base)
	if err != nil {
		return Result{ID: "t_dist", Title: "Distribution load", Notes: err.Error()}
	}
	if err := signer.SignZone(z0, base); err != nil {
		return Result{ID: "t_dist", Title: "Distribution load", Notes: err.Error()}
	}
	chain, err := client.FetchDeltaChain(ctx, z0.Serial())
	if err != nil || len(chain) != 1 {
		return Result{ID: "t_dist", Title: "Distribution load",
			Notes: fmt.Sprintf("delta chain fetch: %d links, err %v", len(chain), err)}
	}
	chainWire := 0
	for _, db := range chain {
		chainWire += len(db.Encode())
	}
	chainKB := float64(chainWire) / (1 << 10)
	anchors := []dnswire.DNSKEY{signer.KSK.DNSKEY}
	z1, stats, err := chain[0].Apply(z0, dist.ChainAnchor(z0), anchors, base.AddDate(0, 0, 1))
	if err != nil {
		return Result{ID: "t_dist", Title: "Distribution load", Notes: err.Error()}
	}
	totalRRSIGs := 0
	for _, rr := range z1.Records() {
		if rr.Type == dnswire.TypeRRSIG {
			totalRRSIGs++
		}
	}

	// TTL increase: refreshing weekly instead of every two days.
	weeklyPerDayMB := fullMB / 7

	const spamhausMBPerDay = 3100.0
	ratioToSpamhaus := spamhausMBPerDay / perDayMB

	return Result{
		ID:    "t_dist",
		Title: "Root zone distribution load (§5.2)",
		Rows: []Row{
			row("compressed zone (signed)", "~1.1MB", "%.2fMB", fullMB)(fullMB > 0.3 && fullMB < 2.2),
			row("per-resolver full-fetch load", "~0.55MB/day", "%.2fMB/day", perDayMB)(
				perDayMB > 0.1 && perDayMB < 1.1),
			row("signed delta chain", "only changes propagate", "%.1fkB vs %.2fMB full bundle (%.0fx smaller)",
				chainKB, fullMB, fullMB*1024/chainKB)(chainKB < fullMB*1024/4),
			row("incremental verification", "O(delta) sig checks", "%d checks vs %d RRSIGs in the zone",
				stats.SigChecks, totalRRSIGs)(stats.SigChecks > 0 && stats.SigChecks < totalRRSIGs/10),
			row("1-week TTL refresh", "reduces overhead", "%.2fMB/day (%.1fx less)", weeklyPerDayMB, perDayMB/weeklyPerDayMB)(
				weeklyPerDayMB < perDayMB),
			row("vs ICSI SpamHaus feed", "3.1GB/day, considered fine", fmt.Sprintf("%.0fx the zone load", ratioToSpamhaus))(
				ratioToSpamhaus > 100),
		},
		Notes: "delta measured between consecutive daily signed snapshots over real HTTP.\n" +
			"The signed-delta-chain rows move `DeltaBundle`s (removed RRset keys +\n" +
			"added RRsets, publisher-signed, chained by zone hash) and verify\n" +
			"incrementally — only RRSIGs covering added RRsets are checked, so one\n" +
			"day of churn costs a handful of signature verifications against\n" +
			"thousands for a full-bundle verify. A link carries the re-signed RRSIGs\n" +
			"and NSEC updates for the changed names, which is exactly what lets the\n" +
			"receiver skip re-verifying everything else.",
	}
}

// Staleness reproduces §5.2's out-of-date-zone analysis on daily
// synthetic snapshots.
func Staleness() Result {
	truthDate := ymd(2019, time.May, 1)
	truth, err := rootzone.Build(truthDate)
	if err != nil {
		return Result{ID: "t_stale", Title: "Staleness", Notes: err.Error()}
	}
	shareAt := func(staleDays int) float64 {
		stale, err := rootzone.Build(truthDate.AddDate(0, 0, -staleDays))
		if err != nil {
			return 0
		}
		return zonediff.CheckReachability(stale, truth).ReachableShare()
	}
	share14 := shareAt(14)
	share30 := shareAt(30)

	// Year-apart comparison, as the paper does with April 2018 vs 2019.
	truth2019, err := rootzone.Build(ymd(2019, time.April, 1))
	if err != nil {
		return Result{ID: "t_stale", Title: "Staleness", Notes: err.Error()}
	}
	stale2018, err := rootzone.Build(ymd(2018, time.April, 1))
	if err != nil {
		return Result{ID: "t_stale", Title: "Staleness", Notes: err.Error()}
	}
	year := zonediff.CheckReachability(stale2018, truth2019)

	// April 2019 deletions (the paper observes exactly one).
	apr1, _ := rootzone.Build(ymd(2019, time.April, 1))
	apr30, _ := rootzone.Build(ymd(2019, time.April, 30))
	aprDiff := zonediff.Diff(apr1, apr30)

	return Result{
		ID:    "t_stale",
		Title: "Reachability with stale zone copies (§5.2)",
		Rows: []Row{
			row("TLDs reachable, 1-month-old zone", "99.6%", "%.1f%%", 100*share30)(
				within(share30, 0.996, 0.01) && share30 < 1.0),
			row("TLDs reachable, 14-day-old zone", "100% (rotation overlap)", "%.1f%%", 100*share14)(
				share14 >= 0.999),
			row("TLDs reachable, 1-year-old zone", "96.7% (all but 50)", "%.1f%% (all but %d)",
				100*year.ReachableShare(), len(year.Broken))(
				within(year.ReachableShare(), 0.967, 0.03)),
			row("TLDs deleted during April 2019", "1", "%d", len(aprDiff.RemovedTLDs))(
				len(aprDiff.RemovedTLDs) == 1),
			row("rotating-NS TLDs", "5 (NeuStar)", "%d", countRotating())(countRotating() == 5),
		},
	}
}

func countRotating() int {
	n := 0
	for _, t := range rootzone.Corpus() {
		if t.Rotating {
			n++
		}
	}
	return n
}
