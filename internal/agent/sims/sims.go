// Package sims is the table of simulator families a Chronos agent can
// host. chronos-agent's -system flag and the experiments look a family up
// here; adding a family means implementing agent.SUT in a package of its
// own and adding one row.
package sims

import (
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/tsagent"
	"chronos/internal/tssim"
)

// Family is one row of the table: the system a family registers in
// Chronos Control and its runner factory. Simulated writes wait
// writeLatency (0 keeps the engine default) and a non-zero seed pins
// engine-internal randomness; a family without such knobs ignores them.
type Family struct {
	Name, Description string
	Definition        func() ([]params.Definition, []core.DiagramSpec)
	Factory           func(writeLatency time.Duration, seed int64) func() agent.Runner
}

// Families lists every family, the default first.
var Families = []Family{
	{mongoagent.SystemName, "simulated MongoDB", mongoagent.SystemDefinition,
		func(writeLatency time.Duration, seed int64) func() agent.Runner {
			return mongoagent.NewFactory(mongosim.Options{WriteLatency: writeLatency, Seed: seed})
		}},
	{tsagent.SystemName, "simulated time-series store", tsagent.SystemDefinition,
		func(time.Duration, int64) func() agent.Runner { return tsagent.NewFactory(tssim.Options{}) }},
}

// Lookup returns the family registered as name.
func Lookup(name string) (Family, bool) {
	for _, f := range Families {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}
