package scenario

import (
	"reflect"
	"testing"
)

// TestSpecCloneDeep pins the Clone contract campaign expansion depends
// on: the copy is structurally equal, and mutating every reference-typed
// field of the copy leaves the original untouched.
func TestSpecCloneDeep(t *testing.T) {
	for _, name := range PresetNames() {
		sp, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cp := sp.Clone()
		if !reflect.DeepEqual(sp, cp) {
			t.Fatalf("%s: clone differs from original", name)
		}
		// Mutate everything shared by reference in the clone.
		for i := range cp.Terminals {
			cp.Terminals[i].ID = "mutated"
			if cp.Terminals[i].Channel != nil {
				cp.Terminals[i].Channel.CFO = 99
			}
			for j := range cp.Terminals[i].Beams {
				cp.Terminals[i].Beams[j] = 99
			}
		}
		for i := range cp.Events {
			cp.Events[i].Frame = 9999
			if cp.Events[i].Join != nil {
				cp.Events[i].Join.ID = "mutated"
			}
			if cp.Events[i].Channel != nil {
				cp.Events[i].Channel.CFO = 99
			}
			if cp.Events[i].Scheduler != nil {
				cp.Events[i].Scheduler.Kind = "mutated"
			}
		}
		if cp.Traffic.Scheduler != nil {
			cp.Traffic.Scheduler.Kind = "mutated"
		}
		orig, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sp, orig) {
			t.Fatalf("%s: mutating the clone reached the original", name)
		}
	}
}

// TestPresetsEnumeration checks every registered preset carries its
// registry name and validates.
func TestPresetsEnumeration(t *testing.T) {
	for _, name := range PresetNames() {
		sp, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Name != name {
			t.Fatalf("spec name %q, registry name %q", sp.Name, name)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
}
