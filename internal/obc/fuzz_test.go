package obc

import (
	"bytes"
	"testing"

	"repro/internal/fpga"
)

// Arbitrary bytes through the delta-file decoder: an error or a delta,
// never a panic, and an accepted file re-marshals to the bytes it came
// from.
func FuzzUnmarshalDelta(f *testing.F) {
	d := &DeltaFile{Device: "demod-v2", Base: 0xdeadbeef, Target: 0x01020304, Writes: []FrameWrite{
		{Row: 0, Col: 1, Frame: [fpga.FrameBytes]byte{1, 2, 3, 4}},
		{Row: 31, Col: 31},
	}}
	f.Add(d.Marshal())
	f.Add((&DeltaFile{}).Marshal())
	f.Add([]byte("SDLT"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDelta(data)
		if err != nil {
			return
		}
		if !bytes.Equal(d.Marshal(), data) {
			t.Fatalf("delta for %q (%d writes) re-marshals to different bytes", d.Device, len(d.Writes))
		}
	})
}
