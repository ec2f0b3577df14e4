package ftp

import "testing"

// Arbitrary bytes through the COPS policy decoder: an error or a policy,
// never a panic, and an accepted policy survives its own round trip (the
// flag byte's unused bits are dropped, so the bytes themselves are not
// canonical).
func FuzzUnmarshalPolicy(f *testing.F) {
	f.Add(Policy{Device: "demod-fpga", Design: "demod-v2", Validate: true, Rollback: true}.Marshal())
	f.Add(Policy{}.Marshal())
	f.Add([]byte{0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPolicy(data)
		if err != nil {
			return
		}
		if back, err := UnmarshalPolicy(p.Marshal()); err != nil || back != p {
			t.Fatalf("policy %+v round-trips to %+v, %v", p, back, err)
		}
	})
}
