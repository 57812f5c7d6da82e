package experiments

import (
	"fmt"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

func ymd(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// monthFloat renders a date as a fractional year for series axes.
func monthFloat(t time.Time) float64 {
	return float64(t.Year()) + (float64(t.YearDay())-1)/365.25
}

// Fig1RootZoneGrowth regenerates Figure 1: root zone record count on the
// 15th of each month, April 2009 – December 2019, by actually building
// the synthetic zone at sampled dates and counting records.
func Fig1RootZoneGrowth() Result {
	series := Series{
		Name:   "fig1: root zone RRs over time",
		XLabel: "year",
		YLabel: "records",
	}
	// Figure 1 counts records in the published (signed) zone file, which
	// since July 2010 includes DNSSEC records. Building and signing ~40
	// full zones is the cost of regenerating the series; sample
	// quarterly and pin the paper's anchor months exactly.
	var sampled []time.Time
	for at := ymd(2009, time.April, 15); at.Before(ymd(2020, time.January, 1)); at = at.AddDate(0, 3, 0) {
		sampled = append(sampled, at)
	}
	sampled = append(sampled, ymd(2013, time.June, 15), ymd(2017, time.June, 15), ymd(2019, time.June, 7))

	counts := make(map[time.Time]int)
	for _, at := range sampled {
		z, err := signedRoot(at)
		if err != nil {
			continue
		}
		counts[at] = z.Len()
		series.Append(monthFloat(at), float64(z.Len()))
	}

	early := counts[ymd(2013, time.June, 15)]
	late := counts[ymd(2017, time.June, 15)]
	steady := counts[ymd(2019, time.June, 7)]
	growth := float64(late) / float64(early)

	return Result{
		ID:    "fig1",
		Title: "Root zone size over time (Figure 1)",
		Rows: []Row{
			row("TLDs 2013-06-15", "317", "%d", len(rootzone.TLDsAt(ymd(2013, time.June, 15))))(
				len(rootzone.TLDsAt(ymd(2013, time.June, 15))) == 317),
			row("TLDs 2017-06-15", "1534", "%d", len(rootzone.TLDsAt(ymd(2017, time.June, 15))))(
				within(float64(len(rootzone.TLDsAt(ymd(2017, time.June, 15)))), 1534, 0.02)),
			row("RR growth 2013→2017", "over five-fold", "%.1fx", growth)(growth >= 4.2),
			row("steady-state records", "~22K", "%d", steady)(within(float64(steady), 22000, 0.15)),
		},
		Series: []Series{series},
		Notes:  "series sampled quarterly; anchors sampled exactly",
	}
}

// Fig2InstanceGrowth regenerates Figure 2: total root instances on the
// 15th of each month, March 2015 – July 2019, with the documented e/f
// root events.
func Fig2InstanceGrowth() Result {
	series := Series{
		Name:   "fig2: root instances over time",
		XLabel: "year",
		YLabel: "instances",
	}
	for at := ymd(2015, time.March, 15); !at.After(ymd(2019, time.July, 15)); at = at.AddDate(0, 1, 0) {
		series.Append(monthFloat(at), float64(anycast.InstanceCount(at)))
	}
	start := anycast.InstanceCount(ymd(2015, time.March, 15))
	end := anycast.InstanceCount(ymd(2019, time.May, 15))
	jumpE1 := anycast.InstanceCountForLetter('e', ymd(2016, time.February, 15)) -
		anycast.InstanceCountForLetter('e', ymd(2016, time.January, 15))
	jumpF1 := anycast.InstanceCountForLetter('f', ymd(2017, time.May, 15)) -
		anycast.InstanceCountForLetter('f', ymd(2017, time.April, 15))
	dec2017 := (anycast.InstanceCountForLetter('e', ymd(2017, time.December, 15)) -
		anycast.InstanceCountForLetter('e', ymd(2017, time.November, 15))) +
		(anycast.InstanceCountForLetter('f', ymd(2017, time.December, 15)) -
			anycast.InstanceCountForLetter('f', ymd(2017, time.November, 15)))

	small := true
	for _, l := range []byte{'b', 'g', 'h', 'm'} {
		if anycast.InstanceCountForLetter(l, ymd(2019, time.May, 15)) > 6 {
			small = false
		}
	}
	big := true
	for _, l := range []byte{'d', 'e', 'f', 'j', 'l'} {
		if anycast.InstanceCountForLetter(l, ymd(2019, time.May, 15)) <= 100 {
			big = false
		}
	}

	return Result{
		ID:    "fig2",
		Title: "Root nameserver instances over time (Figure 2)",
		Rows: []Row{
			row("instances 2019-05-15", "985", "%d", end)(within(float64(end), 985, 0.05)),
			row("growth over window", "more than doubled", fmt.Sprintf("%.2fx (%d→%d)", float64(end)/float64(start), start, end))(
				float64(end)/float64(start) >= 2.0),
			row("e-root 2016-02 jump", "+45", "+%d", jumpE1)(jumpE1 >= 45),
			row("f-root 2017-05 jump", "+81", "+%d", jumpF1)(jumpF1 >= 81),
			row("e+f 2017-12 jumps", "+128", "+%d", dec2017)(dec2017 >= 128),
			row("b,g,h,m instance cap", "at most 6", "%v", small)(small),
			row("d,e,f,j,l over 100", "over 100 each", "%v", big)(big),
		},
		Series: []Series{series},
	}
}

// HintsFile reproduces §2.1's root hints facts.
func HintsFile() Result {
	hints := rootzone.Hints()
	text := rootzone.HintsText()
	ttl := hints[0].TTL
	return Result{
		ID:    "t_hints",
		Title: "Root hints file (§2.1)",
		Rows: []Row{
			row("entries", "39", "%d", len(hints))(len(hints) == 39),
			row("named roots", "13", "%d", len(rootzone.RootLetters()))(len(rootzone.RootLetters()) == 13),
			row("file size", "~3KB", "%d bytes", len(text))(within(float64(len(text)), 3000, 0.5)),
			row("record TTL", "3.6M s (~42 days)", "%d s", ttl)(ttl == 3600000),
		},
	}
}

// ZoneSize reproduces §2.1/§5.1's root zone size facts, using the signed
// zone (whose RRSIG payload is what makes the real file ~1.1 MB
// compressed).
func ZoneSize() Result {
	at := ymd(2019, time.June, 7)
	signed, err := signedRoot(at)
	if err != nil {
		return Result{ID: "t_zonesize", Title: "Root zone size", Notes: err.Error()}
	}
	records := signed.Len()
	rrsets := signed.RRsetCount()
	blob, err := zone.Compress(signed)
	if err != nil {
		return Result{ID: "t_zonesize", Title: "Root zone size", Notes: err.Error()}
	}
	hintsEntries := len(rootzone.Hints())
	ratio := float64(records) / float64(hintsEntries)
	mb := float64(len(blob)) / (1 << 20)
	return Result{
		ID:    "t_zonesize",
		Title: "Root zone file size (§2.1, §5.1)",
		Rows: []Row{
			row("records (signed zone)", "~22K", "%d", records)(within(float64(records), 22000, 0.15)),
			row("RRsets", "~14K", "%d", rrsets)(within(float64(rrsets), 14000, 0.25)),
			row("hints→zone entries", "581x", "%.0fx", ratio)(ratio > 400 && ratio < 750),
			row("compressed size (signed)", "~1.1MB", "%.2fMB", mb)(mb > 0.35 && mb < 2.2),
		},
		Notes: "Ed25519 signatures are 4x smaller than the root's RSA ones, so the compressed file lands below the paper's 1.1MB at the same record count",
	}
}
