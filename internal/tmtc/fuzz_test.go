package tmtc

import (
	"bytes"
	"testing"
)

// Arbitrary bytes through the TC/TM frame and CLCW decoders: an error or
// a value, never a panic. An accepted frame that Marshal can carry
// re-marshals to the bytes it came from; a CLCW survives its own round
// trip (any lockout byte other than 1 reads as "clear", so the bytes
// themselves are not canonical).
func FuzzUnmarshalFrame(f *testing.F) {
	f.Add((&Frame{VC: 1, Type: FrameAD, Seq: 7, Payload: []byte("reload demod-fpga")}).Marshal())
	f.Add((&Frame{VC: 0, Type: FrameBD}).Marshal())
	f.Add((&Frame{VC: 2, Type: FrameCLCW, Payload: CLCW{VC: 2, Expected: 9, Lockout: true}.Marshal()}).Marshal())
	f.Add(CLCW{VC: 1, Expected: 255}.Marshal())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := UnmarshalCLCW(data); err == nil {
			if back, err := UnmarshalCLCW(c.Marshal()); err != nil || back != c {
				t.Fatalf("CLCW %+v round-trips to %+v, %v", c, back, err)
			}
		}
		fr, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		if len(fr.Payload) <= MaxFrameData && !bytes.Equal(fr.Marshal(), data) {
			t.Fatalf("frame %+v re-marshals to different bytes", fr)
		}
		UnmarshalCLCW(fr.Payload)
	})
}
