package scenario

// Clone returns a deep copy of the spec: mutating the copy (terminal
// lists, channel profiles, event scripts, the scheduler) never reaches
// the original. This is the override hook campaign expansion rides — a
// base spec is cloned once per grid point and once more per run before
// the sweep axes and the derived seed are applied.
func (sp Spec) Clone() Spec {
	out := sp
	if sp.Terminals != nil {
		out.Terminals = make([]TerminalSpec, len(sp.Terminals))
		for i, t := range sp.Terminals {
			out.Terminals[i] = t.Clone()
		}
	}
	if sp.Events != nil {
		out.Events = make([]Event, len(sp.Events))
		for i, ev := range sp.Events {
			out.Events[i] = ev.Clone()
		}
	}
	out.Traffic.Scheduler = clonePtr(sp.Traffic.Scheduler)
	return out
}

// Clone returns a deep copy of one terminal (or population) spec.
func (t TerminalSpec) Clone() TerminalSpec {
	out := t
	out.Channel = clonePtr(t.Channel)
	if t.Beams != nil {
		out.Beams = append([]int(nil), t.Beams...)
	}
	return out
}

// Clone returns a deep copy of one scripted event.
func (ev Event) Clone() Event {
	out := ev
	if ev.Join != nil {
		j := ev.Join.Clone()
		out.Join = &j
	}
	out.Channel = clonePtr(ev.Channel)
	out.Scheduler = clonePtr(ev.Scheduler)
	return out
}

// clonePtr returns a pointer to a copy of *p (nil for nil).
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	cp := *p
	return &cp
}
