package ipstack

import (
	"bytes"
	"testing"
)

// Arbitrary bytes through the datagram decoder: an error or a packet,
// never a panic, and an accepted datagram re-marshals to the bytes it
// came from.
func FuzzUnmarshalPacket(f *testing.F) {
	f.Add((&Packet{Src: AddrOf(10, 42, 0, 1), Dst: AddrOf(10, 42, 0, 2), Proto: ProtoUDP, TTL: 64,
		Payload: []byte("RRQ bitstream")}).Marshal())
	f.Add((&Packet{Proto: ProtoTCP}).Marshal())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPacket(data)
		if err != nil {
			return
		}
		if !bytes.Equal(p.Marshal(), data) {
			t.Fatalf("packet %+v re-marshals to different bytes", p)
		}
	})
}
