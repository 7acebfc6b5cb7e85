package im

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"crossroads/internal/intersection"
	"crossroads/internal/safety"
)

// PolicyOptions carries the cross-policy knobs a scheduler factory may
// consume. Every IM shard of a multi-node topology is constructed
// independently from the same options with its own RNG stream.
type PolicyOptions struct {
	// Spec carries the uncertainty bounds (buffers, WC-RTD).
	Spec safety.Spec
	// Cost models IM computation delay.
	Cost CostModel
	// RefLength and RefWidth are the reference vehicle body dimensions
	// (the largest vehicle in the workload).
	RefLength, RefWidth float64
	// OmitRTDBuffer runs VT-IM without its RTD buffer (the unsafe
	// ablation); other policies reject it.
	OmitRTDBuffer bool
	// AIMGridN and AIMTimeStep tune the AIM baseline; zero uses defaults.
	// They predate Params and remain supported; "aim.grid"/"aim.step"
	// params win when both are given.
	AIMGridN    int
	AIMTimeStep float64
	// Params carries generic per-policy knobs under namespaced
	// "<policy>.<knob>" keys. Factories read their namespace through
	// ParamsFor and reject unknown knobs; ValidateParams rejects keys
	// addressed to unregistered policies.
	Params map[string]string
}

// PolicyFactory constructs one scheduler instance for one intersection.
type PolicyFactory func(x *intersection.Intersection, opts PolicyOptions, rng *rand.Rand) (Scheduler, error)

var (
	policyMu  sync.RWMutex
	policyReg = map[string]PolicyFactory{}
)

// RegisterPolicy adds a scheduler factory under a policy name. Policy
// packages self-register from init(); registering a duplicate name panics
// (it is a wiring bug, not a runtime condition).
func RegisterPolicy(name string, f PolicyFactory) {
	policyMu.Lock()
	defer policyMu.Unlock()
	if _, dup := policyReg[name]; dup {
		panic("im: duplicate policy registration: " + name)
	}
	policyReg[name] = f
}

// NewScheduler instantiates the named policy for one intersection. The
// caller owns rng: schedulers for different nodes must get independent
// streams so one shard's jitter draws cannot perturb another's.
func NewScheduler(name string, x *intersection.Intersection, opts PolicyOptions, rng *rand.Rand) (Scheduler, error) {
	policyMu.RLock()
	f, ok := policyReg[name]
	policyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("im: unknown policy %q (registered: %v)", name, Policies())
	}
	return f(x, opts, rng)
}

// Policies returns the registered policy names, sorted — the canonical
// discovery call behind `-policy list` and the pkg/crossroads facade.
func Policies() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	names := make([]string, 0, len(policyReg))
	for n := range policyReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisteredPolicies is the historic alias for Policies.
func RegisteredPolicies() []string { return Policies() }

// policyRegistered reports whether a policy name is registered.
func policyRegistered(name string) bool {
	policyMu.RLock()
	defer policyMu.RUnlock()
	_, ok := policyReg[name]
	return ok
}
