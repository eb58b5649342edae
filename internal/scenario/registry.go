package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// registry holds every paper experiment by name; paper.go, cluster.go and
// faults.go fill it at init, and nothing writes it after.
var registry = map[string]Scenario{}

// register adds a scenario at init, panicking on an invalid description
// or a duplicate name.
func register(s Scenario) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate name %q", s.Name))
	}
	registry[s.Name] = s
}

// Get returns the scenario registered under name.
func Get(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered names, sorted, so listings and docs
// snippets are stable regardless of init wiring order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered scenarios sorted by name.
func All() []Scenario {
	names := Names()
	out := make([]Scenario, len(names))
	for i, name := range names {
		out[i] = registry[name]
	}
	return out
}

// List renders a table of the registered scenarios for -list flags.
func List() string {
	var sb strings.Builder
	for _, s := range All() {
		throttle := "throttled"
		if !s.Throttled {
			throttle = "baseline"
		}
		fmt.Fprintf(&sb, "  %-16s %2d clients, %-5s %-9s window [%v, %v)\n      %s\n",
			s.Name, s.Clients, s.Workload.String()+",", throttle, s.Warmup, s.Horizon,
			s.Description)
	}
	return sb.String()
}
