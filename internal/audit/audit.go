// Package audit is the simulator's correctness layer: a tick-level
// invariant checker, an FNV-1a architectural-state hasher and a seeded
// trace fuzzer.
//
// The checker validates conservation laws the evaluation silently
// depends on — requests in flight = issued − completed per component,
// queue occupancies within configured bounds, RnR window/pace
// bookkeeping exact, prefetch classification counters consistent — and
// reports every violation with the cycle, the component and the law
// that failed. It follows the telemetry pattern: a nil checker costs
// one pointer compare per simulator tick, and a registered checker
// runs only every Config.Interval cycles.
//
// The package depends only on the standard library (plus the fuzzer's
// workload imports), so every simulated component can expose audit
// hooks (AuditInvariants, HashState) without an import cycle.
package audit

import (
	"fmt"
)

// Violation is one failed invariant: where, when and which law.
type Violation struct {
	Cycle     uint64 `json:"cycle"`
	Component string `json:"component"`
	Law       string `json:"law"`
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Component, v.Law)
}

// Config enables and tunes the invariant checker. The zero value is a
// usable default-everything configuration; the pointer lives in
// sim.Config so that a nil pointer is the (zero-cost) disabled state.
type Config struct {
	// Interval is the number of cycles between invariant sweeps.
	// 0 means DefaultInterval. 1 checks every cycle (fuzzing mode).
	Interval uint64
}

// DefaultInterval is the Config zero-value sweep cadence.
const DefaultInterval = 1024

// maxViolations bounds how many violations a Checker retains; further
// ones are counted but dropped.
const maxViolations = 64

// EffectiveInterval resolves the check cadence.
func (c Config) EffectiveInterval() uint64 {
	if c.Interval == 0 {
		return DefaultInterval
	}
	return c.Interval
}

// checkFn validates one component's invariants; each violated law is
// reported as a human-readable law string (the checker adds cycle and
// component).
type checkFn func(report func(law string))

type component struct {
	name  string
	check checkFn
}

// Checker runs registered component checks and accumulates violations.
// One Checker belongs to one simulated System and is driven from its
// tick loop, so no locking is needed.
type Checker struct {
	components []component
	violations []Violation
	dropped    uint64
	checks     uint64
}

// New builds a checker with no registered components.
func New() *Checker { return &Checker{} }

// Register adds a component check under the given name. Checks run in
// registration order on every sweep.
func (c *Checker) Register(name string, check func(report func(law string))) {
	c.components = append(c.components, component{name: name, check: check})
}

// Check sweeps every registered component once, attributing violations
// to the given cycle. The caller is responsible for the cadence
// (sim.System ticks it every Config.EffectiveInterval() cycles and once
// more after the run drains).
func (c *Checker) Check(cycle uint64) {
	c.checks++
	for i := range c.components {
		comp := &c.components[i]
		comp.check(func(law string) {
			if len(c.violations) >= maxViolations {
				c.dropped++
				return
			}
			c.violations = append(c.violations, Violation{
				Cycle:     cycle,
				Component: comp.name,
				Law:       law,
			})
		})
	}
}

// Violations returns the retained violations in detection order.
func (c *Checker) Violations() []Violation { return c.violations }

// Dropped returns how many violations were discarded past the limit.
func (c *Checker) Dropped() uint64 { return c.dropped }

// Checks returns how many sweeps have run (diagnostics for the
// harness: zero sweeps means the checker was never wired in).
func (c *Checker) Checks() uint64 { return c.checks }

// Err summarises the violations as an error, nil when the run is
// clean. The first violation is quoted in full; the rest are counted.
func (c *Checker) Err() error {
	total := uint64(len(c.violations)) + c.dropped
	if total == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s), first: %s",
		total, c.violations[0])
}
