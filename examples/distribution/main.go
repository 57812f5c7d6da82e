// Distribution: the §3/§5.2 out-of-band pipeline. A publisher signs and
// publishes daily root zone snapshots to an HTTP mirror; a resolver-side
// LocalRoot fetches, verifies and installs each one on the paper's
// TTL-derived schedule (refresh at X+42h, hourly retries through hour
// 48), taking each new serial as a signed delta once it holds a copy; a
// second client prices one day as a full bundle against a delta chain;
// and a gossip mesh shows the peer-to-peer variant reaching a thousand
// resolvers in a handful of rounds.
//
// Run: go run ./examples/distribution
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"rootless/internal/core"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/resolver"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

type seedRand struct{ r *rand.Rand }

func (s seedRand) Read(p []byte) (int, error) { return s.r.Read(p) }

// vclock is the virtual clock driving the refresh schedule.
type vclock struct{ t time.Time }

func (v *vclock) now() time.Time { return v.t }

func main() {
	start := time.Date(2019, time.June, 3, 0, 0, 0, 0, time.UTC)

	// Publisher: deterministic KSK/ZSK, NSEC chain, staggered signatures.
	signer, err := dnssec.NewSigner(dnswire.Root, seedRand{rand.New(rand.NewSource(42))})
	if err != nil {
		panic(err)
	}
	signer.AddNSEC = true
	signer.Quantize = 14 * 24 * time.Hour
	signer.Validity = 28 * 24 * time.Hour

	mirror := dist.NewMirror(signer, 16)
	publish := func(at time.Time) *zone.Zone {
		z, err := rootzone.Build(at)
		if err != nil {
			panic(err)
		}
		if err := signer.SignZone(z, at); err != nil {
			panic(err)
		}
		if err := mirror.Publish(z); err != nil {
			panic(err)
		}
		return z
	}
	z0 := publish(start)
	srv := httptest.NewServer(mirror)
	defer srv.Close()
	fmt.Printf("mirror up at %s serving serial %d (%d records)\n\n", srv.URL, z0.Serial(), z0.Len())

	// Resolver side: a lookaside resolver kept fresh by LocalRoot.
	clk := &vclock{t: start}
	r := resolver.New(resolver.Config{
		Mode:      resolver.RootModeLookaside,
		Transport: &resolver.UDPTransport{}, // unused: lookaside answers locally
		Clock:     clk.now,
	})
	lr, err := core.New(core.Config{
		Source:   dist.NewHTTPClient(srv.URL),
		KSK:      signer.KSK.DNSKEY,
		Resolver: r,
		Clock:    clk.now,
	})
	if err != nil {
		panic(err)
	}

	// Walk five days of virtual time in 6-hour steps, publishing a new
	// serial daily and letting the refresher do its thing.
	day := start
	for step := 0; step < 20; step++ {
		if clk.t.Sub(day) >= 24*time.Hour {
			day = day.AddDate(0, 0, 1)
			publish(day)
		}
		installed := lr.Tick(context.Background())
		st := lr.State()
		marker := ""
		if installed {
			marker = fmt.Sprintf("  <- fetched + verified serial %d", st.Serial)
		}
		fmt.Printf("t=%s  healthy=%-5v age=%-7s%s\n",
			clk.t.Format("01-02 15:04"), lr.Healthy(),
			st.Age.Truncate(time.Hour), marker)
		clk.t = clk.t.Add(6 * time.Hour)
	}

	// What a day costs: the full bundle against one signed delta link.
	fmt.Println()
	client := dist.NewHTTPClient(srv.URL)
	if _, err := client.Fetch(context.Background()); err != nil {
		panic(err)
	}
	fullBytes := client.BytesFetched()
	from := mirror.Current().Serial
	publish(day.AddDate(0, 0, 1))
	chain, err := client.FetchDeltaChain(context.Background(), from)
	if err != nil {
		panic(err)
	}
	deltaBytes := client.BytesFetched() - fullBytes
	fmt.Printf("full bundle:        %8d bytes\n", fullBytes)
	fmt.Printf("daily delta chain:  %8d bytes to serial %d (%d link, %.0fx smaller)\n\n",
		deltaBytes, chain[len(chain)-1].ToSerial, len(chain), float64(fullBytes)/float64(deltaBytes))

	// Peer-to-peer alternative: epidemic spread over 1000 resolvers.
	bundle := mirror.Current()
	g := dist.NewGossip(1000, 7)
	g.Seed(bundle, 5)
	rounds, err := g.RoundsToCoverage(bundle.Serial, 0.999)
	if err != nil {
		panic(err)
	}
	st := g.Stats()
	fmt.Printf("gossip: 5 seeds -> 99.9%% of 1000 peers in %d rounds (%d transfers, %.1f MB total)\n",
		rounds, st.Transfers, float64(st.Bytes)/(1<<20))
}
