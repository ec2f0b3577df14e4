package fpga

import (
	"bytes"
	"testing"
)

// Arbitrary bytes through the bitstream decoder: an error or a
// consistent bitstream, never a panic, and an accepted file re-marshals
// to the bytes it came from.
func FuzzUnmarshal(f *testing.F) {
	bs, err := adder2().Compile(4, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bs.Marshal())
	f.Add(NewBitstream("", 0, 0).Marshal())
	f.Add([]byte("SBIT"))

	f.Fuzz(func(t *testing.T, data []byte) {
		bs, err := Unmarshal(data)
		if err != nil {
			return
		}
		if err := bs.Verify(); err != nil {
			t.Fatalf("accepted an inconsistent bitstream: %v", err)
		}
		if !bytes.Equal(bs.Marshal(), data) {
			t.Fatalf("bitstream %q %dx%d re-marshals to different bytes", bs.Design, bs.Rows, bs.Cols)
		}
	})
}
