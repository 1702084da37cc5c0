// Lowbandwidth: the Figure 7(b) scenario as a runnable program.
//
// A mobile object registers a 100-tuple continuous query over a simulated
// GPRS link, once with the baseline strategy (every query tuple is a round
// trip) and once with the model-cache strategy (download the model cover
// once, answer locally until it expires). The program prints the bytes and
// air time each strategy cost the device.
//
// This example wires the internal client/transport machinery directly (it
// lives in the same module); an external application would speak the HTTP
// API of repro.Platform instead.
//
// Run with: go run ./examples/lowbandwidth
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	// Server side: four hours of simulated deployment data in a store with
	// a window long enough to cover the whole continuous query.
	cfg := sim.DefaultLausanne(3)
	cfg.Duration = 4 * 3600
	data, err := sim.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st, err := store.Open(store.Config{WindowLength: 2 * 3600})
	if err != nil {
		log.Fatal(err)
	}
	if err := st.Append(data); err != nil {
		log.Fatal(err)
	}
	engine := server.NewEngine(st, core.Config{})
	defer engine.Close()

	// The mobile object walks through the center for 100 minutes starting
	// at t = 2 h, sending one CO2 query tuple per minute (a Request's zero
	// Pollutant is CO2).
	queries := make([]query.Request, 100)
	for i := range queries {
		queries[i] = query.Request{
			T: 2*3600 + float64(i)*60,
			X: 600 + 8*float64(i),
			Y: 500 + 6*float64(i),
		}
	}

	for _, mk := range []func(cluster.Transport) client.Strategy{
		func(t cluster.Transport) client.Strategy { return client.NewBaseline(t) },
		func(t cluster.Transport) client.Strategy { return client.NewModelCache(t) },
	} {
		link, err := netsim.NewLink(netsim.GPRS())
		if err != nil {
			log.Fatal(err)
		}
		strategy := mk(&client.LinkTransport{Link: link, Handler: engine})
		answers, err := client.RunContinuousCtx(context.Background(), strategy, queries)
		if err != nil {
			log.Fatal(err)
		}
		stats := link.Stats()
		local := 0
		for _, a := range answers {
			if a.Local {
				local++
			}
		}
		fmt.Printf("%-12s sent %7.2f KB  received %7.2f KB  air time %6.1f s  round trips %3d  local answers %3d\n",
			strategy.Name(),
			float64(stats.SentBytes)/1024,
			float64(stats.ReceivedBytes)/1024,
			stats.SimSeconds,
			stats.Exchanges,
			local)
	}
	fmt.Println("\nthe model-cache strategy pays one model download and then answers on-device —")
	fmt.Println("the mechanism behind the paper's ~two-orders-of-magnitude bandwidth savings.")
}
