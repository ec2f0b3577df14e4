package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Arbitrary bytes through the campaign loader: an error or a spec,
// never a panic, and an accepted spec marshals and re-loads to the same
// bytes. The corpus is every preset's JSON. Expand is not called: a
// large runs_per_point is a legal, large campaign.
func FuzzLoad(f *testing.F) {
	for _, name := range PresetNames() {
		sp, err := Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Load(data)
		if err != nil {
			return
		}
		once, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := Load(once)
		if err != nil {
			t.Fatalf("accepted spec re-loads with %v:\n%s", err, once)
		}
		if twice, _ := json.Marshal(again); !bytes.Equal(once, twice) {
			t.Fatalf("spec changed through marshal and re-load:\n%s\n%s", once, twice)
		}
	})
}
