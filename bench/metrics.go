package bench

// metricDef is a metric's unit and the direction in which it improves.
type metricDef struct {
	Unit   string
	Better string
}

// EndToEnd names the end-to-end metrics in reporting order; an untraced
// run of any workload reports all of them.
var EndToEnd = []string{
	"setup_s", "capacity_qps", "cpu_us_per_query", "allocs_per_query", "peak_rss_mb",
}

// PerLayer names the per-layer metrics in reporting order; a traced run
// of any workload reports all of them, those of layers the workload
// does not run, and the paced latencies of a sender that ran late, as
// 0 over 0 samples. The first five were the issue's end-to-end metrics
// that could not stay there; README.md says why.
var PerLayer = []string{
	"fail_frac", "paced_p50_us", "paced_p99_us", "refresh_full_ms", "refresh_delta_ms",
	"driver.echo_capacity_qps", "driver.echo_cpu_us_per_query",
	"driver.late_p50_us", "driver.late_p99_us", "driver.unmatched",
	"udpengine.msgs_per_read", "udpengine.rx_queue_drops", "udpengine.dropped",
	"udpengine.async_frac", "udpengine.write_errs",
	"udpengine.handler_us_p50", "udpengine.handler_share",
	"dnswire.unpack_ns", "dnswire.unpack_allocs", "dnswire.pack_ns", "dnswire.pack_allocs", "dnswire.resp_bytes",
	"authserver.servewire_ns", "authserver.servewire_allocs", "authserver.handle_ns",
	"authserver.packed_hit_frac", "authserver.wire_packs_per_query",
	"authserver.setzone_ms", "authserver.post_install_miss_frac",
	"zone.query_ns", "zone.query_allocs",
	"cache.get_ns", "cache.put_ns", "cache.hit_frac", "cache.evictions_per_query", "cache.nsec_synth_ns",
	"resolver.resolve_hit_ns", "resolver.resolve_hit_allocs",
	"resolver.resolve_miss_us", "resolver.resolve_miss_allocs", "resolver.junk_us",
	"resolver.upstream_queries_per_query", "resolver.root_queries_per_query",
	"resolver.local_root_consults_per_query", "resolver.cache_answer_frac",
	"resolver.nsec_synth_frac", "resolver.coalesced_frac",
	"resolver.upstream_us", "resolver.frontdoor_us",
	"validator.validate_us", "validator.dnskey_fetches_per_query",
	"dist.fetch_full_ms", "dist.fetch_full_bytes", "dist.bundle_verify_ms", "dist.bundle_verify_allocs",
	"dist.delta_fetch_ms", "dist.delta_bytes", "dist.delta_apply_ms", "dist.delta_apply_allocs",
	"dist.delta_sigs_checked", "dist.publish_ms",
	"dnssec.verifyzone_ms", "dnssec.verifyzone_allocs",
	"budget.unexplained_frac", "trace.overhead_frac",
}

// catalogue is every metric rootbench can report. README.md says how
// each is measured and which end-to-end metric it should move.
var catalogue = map[string]metricDef{
	"setup_s":          {"s", "lower"},
	"capacity_qps":     {"1/s", "higher"},
	"cpu_us_per_query": {"us", "lower"},
	"allocs_per_query": {"count", "lower"},
	"peak_rss_mb":      {"MB", "lower"},

	"fail_frac":        {"ratio", "lower"},
	"paced_p50_us":     {"us", "lower"},
	"paced_p99_us":     {"us", "lower"},
	"refresh_full_ms":  {"ms", "lower"},
	"refresh_delta_ms": {"ms", "lower"},

	"driver.echo_capacity_qps":     {"1/s", "higher"},
	"driver.echo_cpu_us_per_query": {"us", "lower"},
	"driver.late_p50_us":           {"us", "lower"},
	"driver.late_p99_us":           {"us", "lower"},
	"driver.unmatched":             {"count", "lower"},

	"udpengine.msgs_per_read":           {"count", "higher"},
	"udpengine.rx_queue_drops":          {"count", "lower"},
	"udpengine.dropped":                 {"count", "lower"},
	"udpengine.async_frac":              {"ratio", "lower"},
	"udpengine.write_errs":              {"count", "lower"},
	"udpengine.handler_us_p50":          {"us", "lower"},
	"udpengine.handler_share":           {"ratio", "lower"},
	"dnswire.unpack_ns":                 {"ns", "lower"},
	"dnswire.unpack_allocs":             {"count", "lower"},
	"dnswire.pack_ns":                   {"ns", "lower"},
	"dnswire.pack_allocs":               {"count", "lower"},
	"dnswire.resp_bytes":                {"B", "lower"},
	"authserver.servewire_ns":           {"ns", "lower"},
	"authserver.servewire_allocs":       {"count", "lower"},
	"authserver.handle_ns":              {"ns", "lower"},
	"authserver.packed_hit_frac":        {"ratio", "higher"},
	"authserver.wire_packs_per_query":   {"count", "lower"},
	"authserver.setzone_ms":             {"ms", "lower"},
	"authserver.post_install_miss_frac": {"ratio", "lower"},
	"zone.query_ns":                     {"ns", "lower"},
	"zone.query_allocs":                 {"count", "lower"},

	"cache.get_ns":              {"ns", "lower"},
	"cache.put_ns":              {"ns", "lower"},
	"cache.hit_frac":            {"ratio", "higher"},
	"cache.evictions_per_query": {"count", "lower"},
	"cache.nsec_synth_ns":       {"ns", "lower"},

	"resolver.resolve_hit_ns":                {"ns", "lower"},
	"resolver.resolve_hit_allocs":            {"count", "lower"},
	"resolver.resolve_miss_us":               {"us", "lower"},
	"resolver.resolve_miss_allocs":           {"count", "lower"},
	"resolver.junk_us":                       {"us", "lower"},
	"resolver.upstream_queries_per_query":    {"count", "lower"},
	"resolver.root_queries_per_query":        {"count", "lower"},
	"resolver.local_root_consults_per_query": {"count", "lower"},
	"resolver.cache_answer_frac":             {"ratio", "higher"},
	"resolver.nsec_synth_frac":               {"ratio", "higher"},
	"resolver.coalesced_frac":                {"ratio", "higher"},
	"resolver.upstream_us":                   {"us", "lower"},
	"resolver.frontdoor_us":                  {"us", "lower"},
	"validator.validate_us":                  {"us", "lower"},
	"validator.dnskey_fetches_per_query":     {"count", "lower"},

	"dist.fetch_full_ms":        {"ms", "lower"},
	"dist.fetch_full_bytes":     {"B", "lower"},
	"dist.bundle_verify_ms":     {"ms", "lower"},
	"dist.bundle_verify_allocs": {"count", "lower"},
	"dist.delta_fetch_ms":       {"ms", "lower"},
	"dist.delta_bytes":          {"B", "lower"},
	"dist.delta_apply_ms":       {"ms", "lower"},
	"dist.delta_apply_allocs":   {"count", "lower"},
	"dist.delta_sigs_checked":   {"count", "lower"},
	"dist.publish_ms":           {"ms", "lower"},
	"dnssec.verifyzone_ms":      {"ms", "lower"},
	"dnssec.verifyzone_allocs":  {"count", "lower"},

	"budget.unexplained_frac": {"ratio", "lower"},
	"trace.overhead_frac":     {"ratio", "lower"},
}
