package ipstack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/tmtc"
)

// pipe wires two interfaces through the simulator with a fixed one-way
// delay and optional deterministic packet loss.
func pipe(s *sim.Simulator, delay float64, loss float64, seed int64) (*Interface, *Interface) {
	a, b := &Interface{}, &Interface{}
	rng := rand.New(rand.NewSource(seed))
	mk := func(dst *Interface) func([]byte) {
		return func(data []byte) {
			if loss > 0 && rng.Float64() < loss {
				return
			}
			cp := append([]byte{}, data...)
			s.Schedule(delay, func() { dst.Deliver(cp) })
		}
	}
	a.SendFunc = mk(b)
	b.SendFunc = mk(a)
	return a, b
}

func twoNodes(s *sim.Simulator, loss float64, seed int64) (*Node, *Node) {
	ia, ib := pipe(s, 0.125, loss, seed)
	ncc := NewNode(s, AddrOf(10, 42, 0, 1), ia)
	sat := NewNode(s, AddrOf(10, 42, 0, 2), ib)
	return ncc, sat
}

func TestAddrString(t *testing.T) {
	if AddrOf(10, 42, 0, 2).String() != "10.42.0.2" {
		t.Fatal("addr formatting")
	}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	p := &Packet{Src: AddrOf(1, 2, 3, 4), Dst: AddrOf(5, 6, 7, 8), Proto: ProtoUDP, TTL: 64, Payload: []byte("hello")}
	got, err := UnmarshalPacket(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.Proto != p.Proto || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPacketChecksumRejectsHeaderCorruption(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, Proto: ProtoTCP, TTL: 64, Payload: []byte{1}}
	data := p.Marshal()
	data[2] ^= 0x40 // src address bit
	if _, err := UnmarshalPacket(data); err == nil {
		t.Fatal("header corruption must be detected")
	}
}

func TestPropertyPacketRoundTrip(t *testing.T) {
	f := func(src, dst uint32, proto byte, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		p := &Packet{Src: Addr(src), Dst: Addr(dst), Proto: proto, TTL: 9, Payload: payload}
		got, err := UnmarshalPacket(p.Marshal())
		return err == nil && got.Src == p.Src && got.Dst == p.Dst && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUDPDelivery(t *testing.T) {
	s := sim.New()
	ncc, sat := twoNodes(s, 0, 1)
	var got []byte
	var gotSrc Addr
	var gotPort uint16
	sat.BindUDP(69, func(src Addr, srcPort uint16, data []byte) {
		got, gotSrc, gotPort = data, src, srcPort
	})
	ncc.SendUDP(sat.Addr(), 3000, 69, []byte("RRQ bitstream"))
	s.Run()
	if string(got) != "RRQ bitstream" || gotSrc != ncc.Addr() || gotPort != 3000 {
		t.Fatalf("UDP delivery: %q from %v:%d", got, gotSrc, gotPort)
	}
}

func TestUDPUnboundPortDropped(t *testing.T) {
	s := sim.New()
	ncc, sat := twoNodes(s, 0, 2)
	ncc.SendUDP(sat.Addr(), 1, 9999, []byte("x"))
	s.Run()
	if sat.RxDropped != 1 {
		t.Fatalf("dropped %d", sat.RxDropped)
	}
}

func TestWrongDestinationDropped(t *testing.T) {
	s := sim.New()
	ncc, sat := twoNodes(s, 0, 3)
	sat.BindUDP(69, func(Addr, uint16, []byte) { t.Fatal("must not deliver") })
	ncc.SendUDP(AddrOf(10, 42, 0, 99), 1, 69, []byte("x"))
	s.Run()
	if sat.RxDropped != 1 {
		t.Fatal("misaddressed packet not dropped")
	}
}

func TestTCPHandshakeAndTransfer(t *testing.T) {
	s := sim.New()
	ncc, sat := twoNodes(s, 0, 4)

	var received bytes.Buffer
	sat.ListenTCP(21, func(c *TCPConn) {
		c.OnData = func(d []byte) { received.Write(d) }
	})

	data := make([]byte, 100_000)
	rand.New(rand.NewSource(5)).Read(data)

	conn := ncc.DialTCP(sat.Addr(), 40000, 21)
	conn.Window = 8
	connected := false
	conn.OnConnect = func() { connected = true }
	conn.Send(data)
	s.MaxEvents = 1_000_000
	s.Run()

	if !connected {
		t.Fatal("handshake failed")
	}
	if !bytes.Equal(received.Bytes(), data) {
		t.Fatalf("stream corrupted: got %d bytes want %d", received.Len(), len(data))
	}
	if conn.Retransmissions != 0 {
		t.Fatalf("unexpected retransmissions: %d", conn.Retransmissions)
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	s := sim.New()
	ncc, sat := twoNodes(s, 0.03, 6) // 3% packet loss
	var received bytes.Buffer
	sat.ListenTCP(21, func(c *TCPConn) {
		c.OnData = func(d []byte) { received.Write(d) }
	})
	data := make([]byte, 60_000)
	rand.New(rand.NewSource(7)).Read(data)
	conn := ncc.DialTCP(sat.Addr(), 40000, 21)
	conn.RTO = 0.6
	drained := false
	conn.Drained = func() { drained = true }
	conn.Send(data)
	s.MaxEvents = 2_000_000
	s.Run()
	if !drained {
		t.Fatal("send queue never drained")
	}
	if !bytes.Equal(received.Bytes(), data) {
		t.Fatalf("stream corrupted after loss: got %d want %d", received.Len(), len(data))
	}
	if conn.Retransmissions == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestTCPLargerWindowFasterOverGEO(t *testing.T) {
	run := func(window int) float64 {
		s := sim.New()
		ncc, sat := twoNodes(s, 0, 8)
		done := -1.0
		var n int
		sat.ListenTCP(21, func(c *TCPConn) {
			c.OnData = func(d []byte) {
				n += len(d)
				if n >= 200_000 {
					done = s.Now()
				}
			}
		})
		conn := ncc.DialTCP(sat.Addr(), 40000, 21)
		conn.Window = window
		conn.RTO = 2
		conn.Send(make([]byte, 200_000))
		s.MaxEvents = 2_000_000
		s.Run()
		return done
	}
	t1, t32 := run(1), run(32)
	if t1 < 0 || t32 < 0 {
		t.Fatal("transfer incomplete")
	}
	// Window 1 is RTT-bound: ~209 segments x 0.25 s.
	if t32 >= t1/4 {
		t.Fatalf("window scaling ineffective: w1=%g w32=%g", t1, t32)
	}
}

func TestTCPListenerRequired(t *testing.T) {
	s := sim.New()
	ncc, sat := twoNodes(s, 0, 9)
	conn := ncc.DialTCP(sat.Addr(), 40000, 2121)
	conn.Send([]byte("x"))
	s.Run()
	if conn.established {
		t.Fatal("connected without a listener")
	}
}

func TestIPsecRoundTrip(t *testing.T) {
	s := sim.New()
	ncc, sat := twoNodes(s, 0, 10)
	saA, saB, err := PairedSAs(make([]byte, 16), []byte("integrity-key"))
	if err != nil {
		t.Fatal(err)
	}
	ncc.EnableIPsec(saA)
	sat.EnableIPsec(saB)

	var got []byte
	sat.BindUDP(69, func(_ Addr, _ uint16, d []byte) { got = d })
	ncc.SendUDP(sat.Addr(), 1, 69, []byte("secret bitstream"))
	s.Run()
	if string(got) != "secret bitstream" {
		t.Fatalf("IPsec delivery: %q", got)
	}
}

func TestIPsecRejectsPlaintext(t *testing.T) {
	s := sim.New()
	ncc, sat := twoNodes(s, 0, 11)
	sa, _, err := PairedSAs(make([]byte, 16), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	sat.EnableIPsec(sa)
	sat.BindUDP(69, func(Addr, uint16, []byte) { t.Fatal("plaintext accepted") })
	ncc.SendUDP(sat.Addr(), 1, 69, []byte("not encrypted"))
	s.Run()
	if sat.ESPDropped != 1 {
		t.Fatalf("ESPDropped %d", sat.ESPDropped)
	}
}

func TestIPsecRejectsTamper(t *testing.T) {
	saA, err := NewSA(make([]byte, 16), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	saB, err := NewSA(make([]byte, 16), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	inner := &Packet{Src: 1, Dst: 2, Proto: ProtoUDP, TTL: 64, Payload: []byte("data")}
	enc, err := saA.Encapsulate(inner)
	if err != nil {
		t.Fatal(err)
	}
	enc.Payload[10] ^= 1
	if _, err := saB.Decapsulate(enc); err == nil {
		t.Fatal("tampered packet accepted")
	}
}

func TestIPsecRejectsReplay(t *testing.T) {
	saA, _ := NewSA(make([]byte, 16), []byte("k"))
	saB, _ := NewSA(make([]byte, 16), []byte("k"))
	inner := &Packet{Src: 1, Dst: 2, Proto: ProtoUDP, TTL: 64, Payload: []byte("data")}
	enc, _ := saA.Encapsulate(inner)
	if _, err := saB.Decapsulate(enc); err != nil {
		t.Fatal(err)
	}
	if _, err := saB.Decapsulate(enc); err == nil {
		t.Fatal("replay accepted")
	}
	if saB.Replayed != 1 {
		t.Fatal("replay counter")
	}
}

func TestIPsecConfidentiality(t *testing.T) {
	sa, _ := NewSA(make([]byte, 16), []byte("k"))
	inner := &Packet{Src: 1, Dst: 2, Proto: ProtoUDP, TTL: 64, Payload: bytes.Repeat([]byte("secret"), 10)}
	enc, _ := sa.Encapsulate(inner)
	if bytes.Contains(enc.Payload, []byte("secret")) {
		t.Fatal("payload visible in ciphertext")
	}
}

// A datagram whose payload exceeds DefaultMTU is dropped and counted,
// never handed to the interface (tmtc.Frame.Marshal would panic on it);
// a full-MSS TCP segment, plain and over ESP, fits one frame.
func TestSendRefusesOversizePacket(t *testing.T) {
	s := sim.New()
	ncc, _ := twoNodes(s, 0, 28)
	sends := 0
	ncc.iface.SendFunc = func([]byte) { sends++ }
	ncc.SendUDP(AddrOf(10, 42, 0, 2), 1, 69, make([]byte, 1000))
	if ncc.TxDropped != 1 || ncc.TxPackets != 0 || sends != 0 {
		t.Fatalf("oversize datagram: TxDropped %d, TxPackets %d, %d interface sends", ncc.TxDropped, ncc.TxPackets, sends)
	}

	for _, ipsec := range []bool{false, true} {
		s := sim.New()
		ncc, sat := twoNodes(s, 0, 29)
		if ipsec {
			saA, saB, err := PairedSAs(make([]byte, 16), []byte("k"))
			if err != nil {
				t.Fatal(err)
			}
			ncc.EnableIPsec(saA)
			sat.EnableIPsec(saB)
		}
		largest := 0
		send := ncc.iface.SendFunc
		ncc.iface.SendFunc = func(d []byte) { largest = max(largest, len(d)); send(d) }
		var received bytes.Buffer
		sat.ListenTCP(21, func(c *TCPConn) { c.OnData = func(d []byte) { received.Write(d) } })
		data := bytes.Repeat([]byte{0x5A}, DefaultMSS)
		ncc.DialTCP(sat.Addr(), 40000, 21).Send(data)
		s.MaxEvents = 10_000 // a dropped segment retransmits forever
		s.Run()
		if ncc.TxDropped != 0 || !bytes.Equal(received.Bytes(), data) {
			t.Fatalf("ipsec=%v: full-MSS segment: TxDropped %d, %d of %d bytes delivered", ipsec, ncc.TxDropped, received.Len(), len(data))
		}
		if largest > tmtc.MaxFrameData {
			t.Fatalf("ipsec=%v: a %d-byte packet exceeds the %d-byte frame", ipsec, largest, tmtc.MaxFrameData)
		}
	}
}
