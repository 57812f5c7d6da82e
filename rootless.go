// Package rootless is a full implementation and experimental testbed for
// the proposal in Mark Allman's "On Eliminating Root Nameservers from the
// DNS" (HotNets 2019): recursive resolvers stop querying root nameservers
// and instead bootstrap from a locally held, cryptographically verified
// copy of the root zone file.
//
// The package re-exports the system's public API from the internal
// packages:
//
//   - Resolver: an iterative recursive resolver with four root modes
//     (classic hints, cache preload, per-transaction lookaside, and an
//     RFC 7706 loopback authoritative server).
//   - LocalRoot: the fetch → verify → install → refresh orchestrator that
//     keeps a resolver's root zone copy fresh on the paper's TTL-derived
//     schedule.
//   - Zone, AuthServer: the zone store and authoritative server engine.
//   - Mirror, HTTPClient, Gossip, Refresher: root-zone distribution over
//     HTTP mirrors with signed delta chains, and peer-to-peer gossip.
//   - Signer, VerifyZone: DNSSEC signing and validation (Ed25519), with
//     NSEC chains and a whole-zone digest.
//   - BuildRootZone, Hints: the synthetic root zone model used in place
//     of the (non-redistributable) real zone archive.
//
// The experiment harness reproducing every figure and table in the paper
// lives in internal/experiments and is driven by cmd/experiments and the
// benchmarks in bench_test.go. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package rootless

import (
	"time"

	"rootless/internal/authserver"
	"rootless/internal/core"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/resolver"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// Wire format.
type (
	// Name is a fully-qualified, canonical DNS name.
	Name = dnswire.Name
	// Type is a DNS RR type.
	Type = dnswire.Type
	// RR is a resource record.
	RR = dnswire.RR
	// Message is a whole DNS message.
	Message = dnswire.Message
)

// Zones and serving.
type (
	// Zone is an in-memory DNS zone with authoritative lookup.
	Zone = zone.Zone
	// AuthServer answers queries for a zone over netsim, UDP and TCP.
	AuthServer = authserver.Server
)

// Resolution.
type (
	// Resolver is the iterative recursive resolver.
	Resolver = resolver.Resolver
	// ResolverConfig configures a Resolver.
	ResolverConfig = resolver.Config
	// RootMode selects how a resolver learns about the root zone.
	RootMode = resolver.RootMode
)

// Root modes.
const (
	RootModeHints     = resolver.RootModeHints
	RootModePreload   = resolver.RootModePreload
	RootModeLookaside = resolver.RootModeLookaside
	RootModeLocalAuth = resolver.RootModeLocalAuth
)

// DNSSEC.
type (
	// Signer signs zones with a KSK/ZSK pair.
	Signer = dnssec.Signer
)

// Distribution.
type (
	// Mirror serves root zone bundles over HTTP with delta sync.
	Mirror = dist.Mirror
	// HTTPClient fetches bundles and deltas from a Mirror.
	HTTPClient = dist.HTTPClient
	// Bundle is a compressed, signed zone snapshot.
	Bundle = dist.Bundle
	// Gossip simulates peer-to-peer zone propagation.
	Gossip = dist.Gossip
)

// The proposal itself.
type (
	// LocalRoot keeps a resolver's local root zone fetched, verified and
	// fresh — the paper's replacement for the root nameserver service.
	LocalRoot = core.LocalRoot
	// LocalRootConfig configures a LocalRoot.
	LocalRootConfig = core.Config
	// Migration models the gradual, flag-day-free deployment of §3.
	Migration = core.Migration
)

// NewResolver builds a resolver; see resolver.Config for the knobs.
func NewResolver(cfg ResolverConfig) *Resolver { return resolver.New(cfg) }

// NewLocalRoot builds the fetch/verify/install orchestrator.
func NewLocalRoot(cfg LocalRootConfig) (*LocalRoot, error) { return core.New(cfg) }

// NewAuthServer builds an authoritative server for a zone.
func NewAuthServer(z *Zone) *AuthServer { return authserver.New(z) }

// BuildRootZone synthesizes the modeled root zone as of a date.
func BuildRootZone(at time.Time) (*Zone, error) { return rootzone.Build(at) }

// Hints returns the classic 13-letter root hints records.
func Hints() []RR { return rootzone.Hints() }
