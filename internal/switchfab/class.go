package switchfab

import "fmt"

// Class is a packet's traffic class — the QoS marking the terminal model
// assigns on the uplink and the downlink scheduler honours when it fills
// slots. The values order by priority: ClassEF (expedited forwarding,
// the voice-like class) outranks ClassAF (assured forwarding) outranks
// ClassBE (best effort). The zero value is best effort, so unmarked
// packets and pre-QoS callers land in the legacy single-class behaviour.
type Class uint8

// Traffic classes, lowest priority first so the zero value is BE.
const (
	ClassBE Class = iota
	ClassAF
	ClassEF
	// NumClasses sizes per-class arrays; classes are dense in
	// [0, NumClasses).
	NumClasses = 3
)

// String implements fmt.Stringer with the spec-level class names.
func (c Class) String() string {
	switch c {
	case ClassEF:
		return "ef"
	case ClassAF:
		return "af"
	default:
		return "be"
	}
}

// ParseClass maps a spec-level class name to the Class constant. The
// empty string is best effort, mirroring the zero value.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "be":
		return ClassBE, nil
	case "af":
		return ClassAF, nil
	case "ef":
		return ClassEF, nil
	default:
		return 0, fmt.Errorf("switchfab: unknown traffic class %q (be, af or ef)", s)
	}
}

// priorityOrder visits classes highest priority first — the strict and
// DRR schedulers walk it.
var priorityOrder = [NumClasses]Class{ClassEF, ClassAF, ClassBE}
