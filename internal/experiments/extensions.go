package experiments

import (
	"context"
	"net/http/httptest"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/core"
	"rootless/internal/dist"
	"rootless/internal/dnswire"
	"rootless/internal/metrics"
	"rootless/internal/netsim"
	"rootless/internal/resolver"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
	"rootless/internal/zonediff"
)

// TTLSweep works §5.2's trade-off quantitatively: longer TTLs (refresh
// intervals) cut distribution load proportionally, while the zone's
// measured stability keeps the staleness risk negligible out to a month.
// The paper concludes the TTL "could be increased (e.g., to 1 week)";
// this experiment is that sentence as a table.
func TTLSweep() Result {
	truthDate := ymd(2019, time.May, 1)
	truth, err := rootzone.Build(truthDate)
	if err != nil {
		return Result{ID: "t_ttl", Title: "TTL sweep", Notes: err.Error()}
	}
	signed, err := signedRoot(truthDate)
	if err != nil {
		return Result{ID: "t_ttl", Title: "TTL sweep", Notes: err.Error()}
	}
	blob, err := zone.Compress(signed)
	if err != nil {
		return Result{ID: "t_ttl", Title: "TTL sweep", Notes: err.Error()}
	}
	sizeMB := float64(len(blob)) / (1 << 20)

	series := metrics.Series{
		Name:   "t_ttl: refresh interval vs staleness risk",
		XLabel: "refresh-days",
		YLabel: "unreachable-TLD-%",
	}
	type point struct {
		days      int
		mbPerDay  float64
		reachable float64
	}
	var pts []point
	for _, days := range []int{2, 7, 14, 30} {
		stale, err := rootzone.Build(truthDate.AddDate(0, 0, -days))
		if err != nil {
			continue
		}
		r := zonediff.CheckReachability(stale, truth)
		p := point{
			days:      days,
			mbPerDay:  sizeMB / float64(days),
			reachable: r.ReachableShare(),
		}
		pts = append(pts, p)
		series.Append(float64(days), 100*(1-p.reachable))
	}
	if len(pts) != 4 {
		return Result{ID: "t_ttl", Title: "TTL sweep", Notes: "zone build failed"}
	}

	rows := []Row{
		row("2-day refresh (status quo TTL)", "baseline load",
			"%.2f MB/day, %.1f%% reachable", pts[0].mbPerDay, 100*pts[0].reachable)(
			pts[0].reachable >= 0.999),
		row("1-week refresh", "reduces overhead; contents highly stable",
			"%.2f MB/day (%.1fx less), %.1f%% reachable",
			pts[1].mbPerDay, pts[0].mbPerDay/pts[1].mbPerDay, 100*pts[1].reachable)(
			pts[1].reachable >= 0.999 && pts[1].mbPerDay < pts[0].mbPerDay/3),
		row("14-day refresh", "rotation overlap still covers",
			"%.2f MB/day, %.1f%% reachable", pts[2].mbPerDay, 100*pts[2].reachable)(
			pts[2].reachable >= 0.999),
		row("30-day refresh", "99.6% still reachable",
			"%.2f MB/day, %.1f%% reachable", pts[3].mbPerDay, 100*pts[3].reachable)(
			pts[3].reachable >= 0.99 && pts[3].reachable < 1.0),
	}
	return Result{
		ID:     "t_ttl",
		Title:  "Increasing the TTL: load vs staleness (§5.2)",
		Rows:   rows,
		Series: []metrics.Series{series},
		Notes:  "staleness risk measured as TLD reachability of a refresh-interval-old zone copy",
	}
}

// AdditionsChannel measures §5.3's mitigation: how long after a TLD is
// added to the root a local-root resolver learns it, refreshing only in
// full or polling the mirror's signed delta chain every 6 hours, at two
// TTLs. Four resolvers walk one virtual clock in lockstep against one
// mirror that publishes each signed day once. A poll applies signed,
// chain-anchored links — the new TLD's records together with the NSEC,
// RRSIG and ZONEMD changes around them — so the installed copy is always
// a published serial, and the TTL only bounds how old the copy may get.
func AdditionsChannel() Result {
	const id, title = "t_additions", "New-TLD lag with a 6-hourly signed delta poll (§5.3)"
	fail := func(err error) Result { return Result{ID: id, Title: title, Notes: err.Error()} }
	s := testbedSigner()
	addedAt := ymd(2018, time.February, 23) // llc's birthday
	clk := &fixedClock{t: addedAt.Add(-40 * time.Hour)}
	mirror := dist.NewMirror(s, 16)
	published := clk.t.Truncate(24 * time.Hour)
	publish := func() error {
		z, err := signedRoot(published)
		if err != nil {
			return err
		}
		return mirror.Publish(z)
	}
	if err := publish(); err != nil {
		return fail(err)
	}
	srv := httptest.NewServer(mirror)
	defer srv.Close()

	type walk struct {
		refresh, expiry time.Duration
		delta           bool
		lr              *core.LocalRoot
		lag             time.Duration
	}
	walks := []*walk{
		{refresh: 42 * time.Hour, expiry: 48 * time.Hour},
		{refresh: 6 * time.Hour, expiry: 48 * time.Hour, delta: true},
		{refresh: 7 * 24 * time.Hour, expiry: 7*24*time.Hour + 6*time.Hour},
		{refresh: 6 * time.Hour, expiry: 7 * 24 * time.Hour, delta: true},
	}
	net := netsim.New(1, clk.t)
	for _, w := range walks {
		client := dist.NewHTTPClient(srv.URL)
		var src dist.Source = client
		if !w.delta {
			src = dist.SourceFunc(client.Fetch) // full bundles only
		}
		lr, err := core.New(core.Config{
			Source:  src,
			KSK:     s.KSK.DNSKEY,
			Refresh: w.refresh,
			Expiry:  w.expiry,
			Clock:   clk.now,
			Resolver: resolver.New(resolver.Config{
				Mode:      resolver.RootModeLookaside,
				Transport: net.Client(anycast.GeoPoint{}),
				Clock:     clk.now,
			}),
		})
		if err != nil {
			return fail(err)
		}
		lr.Tick(context.Background())
		w.lr, w.lag = lr, -1
	}

	// The publisher republishes daily; each resolver ticks hourly until
	// its installed zone holds llc. Probing the zone directly measures
	// when the copy learns the TLD (the resolver's negative cache is a
	// separate, bounded effect).
	for hour, waiting := 0, len(walks); hour < 24*16 && waiting > 0; hour++ {
		clk.advance(time.Hour)
		if day := clk.t.Truncate(24 * time.Hour); day.After(published) {
			published = day
			if err := publish(); err != nil {
				return fail(err)
			}
		}
		for _, w := range walks {
			if w.lag >= 0 {
				continue
			}
			w.lr.Tick(context.Background())
			if z := w.lr.Zone(); z != nil && !clk.t.Before(addedAt) &&
				len(z.Lookup("llc.", dnswire.TypeNS)) > 0 {
				w.lag = clk.t.Sub(addedAt)
				waiting--
			}
		}
	}
	byPoll := func(w *walk) bool {
		return w.lag >= 0 && w.lag <= 7*time.Hour && w.lr.State().DeltaInstalls > 0
	}
	return Result{
		ID:    id,
		Title: title,
		Rows: []Row{
			row("lag, 2-day TTL, full refresh only", "bounded by refresh (≤48h)",
				"%s", walks[0].lag)(walks[0].lag >= 0 && walks[0].lag <= 48*time.Hour),
			row("lag, 2-day TTL + 6-hourly delta poll", "bounded by poll (≤6h)",
				"%s", walks[1].lag)(byPoll(walks[1])),
			row("lag, 1-week TTL, full refresh only", "grows with the TTL",
				"%s", walks[2].lag)(walks[2].lag > 48*time.Hour),
			row("lag, 1-week TTL + 6-hourly delta poll", "polls neutralize the TTL increase",
				"%s", walks[3].lag)(byPoll(walks[3])),
		},
		Notes: "virtual-time walk around the real .llc addition date; four resolvers follow one mirror " +
			"that publishes each signed day once; a delta poll installs signed, chain-anchored links, " +
			"so the copy is always a published serial",
	}
}
