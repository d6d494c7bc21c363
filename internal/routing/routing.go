// Package routing is the protocol registry: the five protocols of the
// paper's evaluation (SRP and its four baselines) registered by name with
// validated per-protocol parameter maps, exactly like the mobility,
// traffic, and radio-propagation model registries. internal/spec selects
// a protocol through Build, so a declarative scenario file can both name
// the protocol and tune its constants ("protocol_params") without any
// code knowing the concrete type — protocol-parameter sweeps are just
// spec files.
//
// Registration is centralized here rather than in per-protocol init
// functions so importing slr/internal/routing is sufficient to see every
// protocol; nothing needs blank imports.
package routing

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"slr/internal/netstack"
	"slr/internal/registry"
	"slr/internal/routing/aodv"
	"slr/internal/routing/dsr"
	"slr/internal/routing/ldr"
	"slr/internal/routing/olsr"
	"slr/internal/routing/srp"
)

// Spec selects a registered protocol by name and carries its parameter
// overrides. It is the protocol section of a declarative scenario spec.
type Spec struct {
	// Name names a registered protocol: "SRP", "LDR", "AODV", "DSR",
	// "OLSR" (case-insensitive).
	Name string
	// Params carries protocol-specific tuning knobs in spec units
	// (durations in seconds, booleans as 0/1); missing keys take the
	// protocol's published defaults, unknown keys are errors.
	Params map[string]float64
}

// Factory builds one node's protocol instance from the spec's parameter
// overrides. Each call must return a fresh instance: protocol state is
// strictly per node.
type Factory func(params map[string]float64) (netstack.Protocol, error)

var factories = registry.New[Factory]("routing protocol")

// Register adds a protocol factory under name. Registering a duplicate
// name panics: it is a wiring bug.
func Register(name string, f Factory) { factories.Register(name, f) }

// loopFree names the protocols whose design claims loop-freedom at every
// instant: SRP (the paper's Theorem 3), LDR and AODV. OLSR's link-state
// tables loop transiently while topology control propagates, and DSR's
// successor view (the first hop of each cached source route) is not what
// its packets follow hop by hop.
var loopFree = map[string]bool{"SRP": true, "LDR": true, "AODV": true}

// LoopFree reports whether the named protocol claims loop-freedom at every
// instant, so that a successor cycle in its run is a defect rather than a
// measurement.
func LoopFree(name string) bool { return loopFree[strings.ToUpper(name)] }

// Protocols returns the registered protocol names, sorted.
func Protocols() []string { return factories.Names() }

// Build constructs one node's instance of the protocol selected by s.
func Build(s Spec) (netstack.Protocol, error) {
	f, ok := factories.Get(strings.ToUpper(s.Name))
	if !ok {
		return nil, fmt.Errorf("routing: unknown protocol %q (registered: %v)", s.Name, Protocols())
	}
	return f(s.Params)
}

// Validate checks that s names a registered protocol and that its params
// resolve to a buildable configuration, without keeping the instance —
// the spec-load-time check that makes a bad scenario fail before any
// simulator exists.
func Validate(s Spec) error {
	_, err := Build(s)
	return err
}

// ParamsFlag is a flag.Value collecting repeated "name=value" protocol
// parameter overrides — the CLI form of a spec's protocol_params map,
// shared by cmd/slrsim and cmd/experiments (-pparam).
type ParamsFlag map[string]float64

// String renders the collected overrides in sorted key order.
func (f ParamsFlag) String() string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, f[k]) //slrlint:allow floatfmt flag display round-trips Set's parse; shortest form is the natural rendering
	}
	return strings.Join(parts, ",")
}

// Set parses one "name=value" pair.
func (f ParamsFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("parameter %s: %w", name, err)
	}
	f[name] = v
	return nil
}

// MergeParams overlays override onto base without mutating either,
// returning the combined map (or base itself when there is nothing to
// overlay).
func MergeParams(base, override map[string]float64) map[string]float64 {
	if len(override) == 0 {
		return base
	}
	merged := make(map[string]float64, len(base)+len(override))
	for k, v := range base {
		merged[k] = v
	}
	for k, v := range override {
		merged[k] = v
	}
	return merged
}

func init() {
	Register("SRP", func(params map[string]float64) (netstack.Protocol, error) {
		cfg, err := srp.ConfigFromParams(params)
		if err != nil {
			return nil, err
		}
		return srp.New(cfg), nil
	})
	Register("LDR", func(params map[string]float64) (netstack.Protocol, error) {
		cfg, err := ldr.ConfigFromParams(params)
		if err != nil {
			return nil, err
		}
		return ldr.New(cfg), nil
	})
	Register("AODV", func(params map[string]float64) (netstack.Protocol, error) {
		cfg, err := aodv.ConfigFromParams(params)
		if err != nil {
			return nil, err
		}
		return aodv.New(cfg), nil
	})
	Register("DSR", func(params map[string]float64) (netstack.Protocol, error) {
		cfg, err := dsr.ConfigFromParams(params)
		if err != nil {
			return nil, err
		}
		return dsr.New(cfg), nil
	})
	Register("OLSR", func(params map[string]float64) (netstack.Protocol, error) {
		cfg, err := olsr.ConfigFromParams(params)
		if err != nil {
			return nil, err
		}
		return olsr.New(cfg), nil
	})
}
