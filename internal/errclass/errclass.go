// Package errclass defines the engine's error taxonomy: every failed
// query falls into one of four classes, and every concrete error type
// (gateway timeouts, memory-budget OOMs, execution-grant timeouts, crash
// disconnects) advertises its class through errors.Is. Clients and the
// harness branch on the class, never on concrete types or error text —
// a retrying driver needs to know *that* work was shed, not which gate
// shed it.
//
// The classes:
//
//   - Shed: admission control deliberately rejected the work (a gateway
//     monitor timed the compilation out). Well-behaved clients do not
//     resubmit shed work — that is the whole point of shedding.
//   - Timeout: a resource wait expired (execution-grant queue). The work
//     was wanted but the resource never arrived; retrying is reasonable.
//   - OOM: a memory reservation failed against the machine budget, a
//     tracker limit, or the VAS group.
//   - Crashed: the server connection died mid-query (engine crash or a
//     submit while the engine is down). Clients reconnect and retry.
//
// Concrete error types opt in by implementing Is(target error) bool and
// returning true for their class sentinel, so classification composes
// with error wrapping via the standard errors package.
package errclass

import "errors"

// class is the sentinel error type; each value's identity is its class.
type class struct{ name string }

func (c *class) Error() string { return "errclass: " + c.name }

// The four class sentinels. Test one with errors.Is(err, errclass.OOM),
// or take err's class with Of.
var (
	Shed    error = &class{"shed"}
	Timeout error = &class{"timeout"}
	OOM     error = &class{"oom"}
	Crashed error = &class{"crashed"}
)

// IsShed reports whether err is deliberately shed work.
func IsShed(err error) bool { return errors.Is(err, Shed) }

// Of returns the class sentinel for err, or nil when err matches none —
// the switch every error-counting path shares.
func Of(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, Crashed):
		return Crashed
	case errors.Is(err, Shed):
		return Shed
	case errors.Is(err, Timeout):
		return Timeout
	case errors.Is(err, OOM):
		return OOM
	default:
		return nil
	}
}
