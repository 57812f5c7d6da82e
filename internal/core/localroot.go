// Package core implements the paper's proposal: eliminate the root
// nameservers by giving every recursive resolver a verified local copy of
// the root zone.
//
// LocalRoot is the orchestrator a resolver operator runs. It obtains the
// root zone out of band through any dist.Source (HTTP mirror with signed
// delta chains, AXFR, peer-to-peer), verifies it cryptographically (the detached
// whole-file signature by default, or the full DNSSEC per-RRset chain),
// installs it into the serving path for the chosen root mode (cache
// preload, per-transaction lookaside, or an RFC 7706-style loopback
// authoritative server), and keeps it fresh on the paper's TTL-derived
// schedule — refresh at X+42 h with retries through hour 48, after which
// the copy is stale and lookups would be impacted.
//
// Migration models §3's deployment story: resolvers adopt local root
// independently, root traffic drains, and the root server infrastructure
// can be decommissioned gradually.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/resolver"
	"rootless/internal/zone"
)

// VerifyMode selects how fetched zones are validated.
type VerifyMode int

// Verification modes.
const (
	// VerifyDetached checks the single whole-file signature — the
	// paper's "sign the entire root zone file" fast path.
	VerifyDetached VerifyMode = iota
	// VerifyFullDNSSEC validates every RRset signature against the DS
	// trust anchor plus the zone digest.
	VerifyFullDNSSEC
	// VerifyBoth requires both to pass.
	VerifyBoth
)

// Config configures a LocalRoot.
type Config struct {
	// Source supplies root zone bundles; required.
	Source dist.Source
	// Fallbacks are alternative bundle sources (gossip peers, secondary
	// mirrors) tried in order when Source fails. Every fallback's bundle
	// passes the same verification pipeline as the primary's.
	Fallbacks []dist.Source
	// KSK is the publisher's key-signing key (detached verification).
	KSK dnswire.DNSKEY
	// Anchor is the DS trust anchor (full DNSSEC verification).
	Anchor dnswire.DS
	// Verify selects the validation mode (default VerifyDetached).
	Verify VerifyMode

	// Resolver, when set, receives verified zones via SetLocalZone —
	// used with resolver.RootModePreload and RootModeLookaside.
	Resolver *resolver.Resolver
	// AuthServer, when set, receives verified zones via SetZone — the
	// RFC 7706 loopback instance for resolver.RootModeLocalAuth.
	AuthServer *authserver.Server

	// Refresh/Retry/Expiry tune the schedule; zero values take the
	// paper's defaults (42 h / 1 h / 48 h). Failed refreshes back off
	// with decorrelated jitter up to RetryCap (default Expiry); Seed
	// makes that jitter deterministic in experiments. Against a source
	// that serves signed delta chains (dist.HTTPClient) a Refresh far
	// below Expiry is cheap — each poll moves and verifies only what
	// changed — and is how a TLD added to the root (§5.3) reaches the
	// resolver long before the copy would expire.
	Refresh  time.Duration
	Retry    time.Duration
	RetryCap time.Duration
	Expiry   time.Duration
	Seed     int64

	// Clock supplies time; nil means time.Now.
	Clock func() time.Time
}

// LocalRoot keeps one resolver's local root zone fetched, verified,
// installed and fresh.
type LocalRoot struct {
	cfg       Config
	refresher *dist.Refresher
	installed int64
	current   *zone.Zone
}

// Errors.
var (
	ErrNoTarget = errors.New("core: config needs a Resolver or AuthServer to install into")
	ErrNoSource = errors.New("core: config needs a Source")
)

// New validates the configuration and builds the LocalRoot.
func New(cfg Config) (*LocalRoot, error) {
	if cfg.Source == nil {
		return nil, ErrNoSource
	}
	if cfg.Resolver == nil && cfg.AuthServer == nil {
		return nil, ErrNoTarget
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	lr := &LocalRoot{cfg: cfg}

	// The refresher's Source wrapper layers the selected verification on
	// top of the raw fetch; dist.Refresher itself always checks the
	// detached signature, so full-DNSSEC modes verify here first.
	var fallbacks []dist.Source
	for _, src := range cfg.Fallbacks {
		fallbacks = append(fallbacks, lr.verifying(src))
	}
	r, err := dist.NewRefresher(dist.RefresherConfig{
		Source:    lr.verifying(cfg.Source),
		KSK:       cfg.KSK,
		Install:   lr.install,
		Refresh:   cfg.Refresh,
		Retry:     cfg.Retry,
		RetryCap:  cfg.RetryCap,
		Expiry:    cfg.Expiry,
		Fallbacks: fallbacks,
		Seed:      cfg.Seed,
		Clock:     cfg.Clock,
	})
	if err != nil {
		return nil, err
	}
	lr.refresher = r
	return lr, nil
}

// verifying wraps a source with full-DNSSEC validation when configured;
// detached-signature validation always runs in the refresher, and every
// source — primary or fallback — goes through the same pipeline. A
// source that also serves signed delta chains keeps doing so through the
// wrapper, or the refresher would never find its O(delta) path: a chain
// needs no validation here, since the refresher checks every link's
// signature and the RRSIG of every RRset it changes.
func (lr *LocalRoot) verifying(src dist.Source) dist.Source {
	full := dist.SourceFunc(func(ctx context.Context) (*dist.Bundle, error) {
		b, err := src.Fetch(ctx)
		if err != nil {
			return nil, err
		}
		if lr.cfg.Verify == VerifyFullDNSSEC || lr.cfg.Verify == VerifyBoth {
			if _, err := b.VerifyFull(lr.cfg.Anchor, lr.cfg.Clock()); err != nil {
				return nil, fmt.Errorf("core: full DNSSEC validation: %w", err)
			}
		}
		return b, nil
	})
	if ds, ok := src.(dist.DeltaSource); ok {
		return deltaSource{full, ds}
	}
	return full
}

// deltaSource is a verifying source over one that is a dist.DeltaSource
// too: Fetch validates, FetchDeltaChain is the wrapped source's own.
type deltaSource struct {
	dist.Source
	dist.DeltaSource
}

// install pushes a verified zone into the configured serving paths.
func (lr *LocalRoot) install(z *zone.Zone) error {
	if lr.cfg.Resolver != nil {
		lr.cfg.Resolver.SetLocalZone(z)
	}
	if lr.cfg.AuthServer != nil {
		lr.cfg.AuthServer.SetZone(z)
	}
	lr.current = z
	lr.installed++
	return nil
}

// Tick attempts a fetch if one is due; returns true if a new zone was
// installed, from a full bundle or a delta chain. Experiments drive this
// on a virtual clock; daemons use Run.
func (lr *LocalRoot) Tick(ctx context.Context) bool { return lr.refresher.Tick(ctx) }

// Run drives the refresh loop on wall-clock time until ctx ends.
func (lr *LocalRoot) Run(ctx context.Context) { lr.refresher.Run(ctx) }

// State reports freshness, serial, age, and fetch/failure counts.
func (lr *LocalRoot) State() dist.State { return lr.refresher.State() }

// Zone returns the currently installed zone, or nil before the first
// successful fetch.
func (lr *LocalRoot) Zone() *zone.Zone { return lr.current }

// Healthy reports whether a fresh (unexpired) zone is installed.
func (lr *LocalRoot) Healthy() bool {
	st := lr.refresher.State()
	return st.HaveZone && st.Fresh
}

// Installs returns how many zones have been installed over the lifetime.
func (lr *LocalRoot) Installs() int64 { return lr.installed }

// BuildTrustAnchor is a convenience for operators bootstrapping from a
// signer (tests, examples, and the zone publisher side).
func BuildTrustAnchor(s *dnssec.Signer) (dnswire.DNSKEY, dnswire.DS) {
	return s.KSK.DNSKEY, s.TrustAnchor()
}
