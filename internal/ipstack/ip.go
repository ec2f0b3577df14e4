// Package ipstack implements the paper's N2 "data system" (§3.3, Fig 4):
// an IP-like network layer with addresses reserved for satellite devices,
// UDP for express transfers, a simplified windowed TCP for controlled
// transfers (with the configurable window the satellite-profile RFC 2488
// recommends), and an ESP-style IPsec layer for the on-board ciphering
// the paper assigns to a (possibly itself reconfigurable) FPGA.
//
// The stack runs over any framing that can carry opaque packets — in the
// payload it rides the TC/TM transfer system's virtual channels, exactly
// as the paper's architecture stacks N2 on N1.
package ipstack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Addr is an IPv4-style address. The 10.42.0.0/16 block is "reserved for
// satellite use" in the experiments.
type Addr uint32

// AddrOf builds an address from dotted components.
func AddrOf(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Protocol numbers.
const (
	ProtoUDP byte = 17
	ProtoTCP byte = 6
	ProtoESP byte = 50
)

// Packet is a network-layer datagram.
type Packet struct {
	Src     Addr
	Dst     Addr
	Proto   byte
	TTL     byte
	Payload []byte
}

// header: src(4) dst(4) proto(1) ttl(1) len(2) checksum(2)
const ipHeaderLen = 14

// DefaultMTU is the largest packet payload one TC transfer frame carries
// (tmtc.MaxFrameData minus the IP header). TCP's MSS keeps a segment,
// even over ESP, within it; nothing is fragmented.
const DefaultMTU = 999

// Marshal serializes the packet with a 16-bit one's-complement-style
// header checksum.
func (p *Packet) Marshal() []byte {
	out := make([]byte, ipHeaderLen+len(p.Payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(p.Src))
	binary.BigEndian.PutUint32(out[4:8], uint32(p.Dst))
	out[8] = p.Proto
	out[9] = p.TTL
	binary.BigEndian.PutUint16(out[10:12], uint16(len(p.Payload)))
	copy(out[ipHeaderLen:], p.Payload)
	binary.BigEndian.PutUint16(out[12:14], headerChecksum(out[:ipHeaderLen]))
	return out
}

// UnmarshalPacket parses and validates a datagram.
func UnmarshalPacket(data []byte) (*Packet, error) {
	if len(data) < ipHeaderLen {
		return nil, errors.New("ipstack: packet too short")
	}
	hdr := slices.Clone(data[:ipHeaderLen])
	want := binary.BigEndian.Uint16(hdr[12:14])
	binary.BigEndian.PutUint16(hdr[12:14], 0)
	if headerChecksum(hdr) != want {
		return nil, errors.New("ipstack: header checksum mismatch")
	}
	ln := int(binary.BigEndian.Uint16(data[10:12]))
	if len(data) != ipHeaderLen+ln {
		return nil, errors.New("ipstack: length mismatch")
	}
	return &Packet{
		Src:     Addr(binary.BigEndian.Uint32(data[0:4])),
		Dst:     Addr(binary.BigEndian.Uint32(data[4:8])),
		Proto:   data[8],
		TTL:     data[9],
		Payload: append([]byte{}, data[ipHeaderLen:]...),
	}, nil
}

func headerChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// Interface binds a node to an underlying frame transport. SendFunc is
// provided by the owner (e.g. a TC/TM virtual channel or a test fixture);
// incoming packets are injected with Deliver.
type Interface struct {
	SendFunc func(data []byte)
	input    func(data []byte)
}

// Deliver injects a received packet into the attached node.
func (i *Interface) Deliver(data []byte) {
	if i.input != nil {
		i.input(data)
	}
}

// UDPHandler receives datagrams for a bound port.
type UDPHandler func(src Addr, srcPort uint16, data []byte)

// Node is one IP host (the NCC or the on-board processor controller).
type Node struct {
	addr  Addr
	sim   *sim.Simulator
	iface *Interface

	udpPorts  map[uint16]UDPHandler
	tcpListen map[uint16]func(*TCPConn)
	tcpConns  map[connKey]*TCPConn

	sa *SecurityAssociation // nil = plaintext

	// Counters. TxDropped counts packets refused for a payload, after
	// ESP, beyond DefaultMTU.
	RxPackets, TxPackets int
	RxDropped, TxDropped int
	ESPDropped           int
}

// NewNode creates a host with the given address on the interface.
func NewNode(s *sim.Simulator, addr Addr, iface *Interface) *Node {
	n := &Node{
		addr:      addr,
		sim:       s,
		iface:     iface,
		udpPorts:  make(map[uint16]UDPHandler),
		tcpListen: make(map[uint16]func(*TCPConn)),
		tcpConns:  make(map[connKey]*TCPConn),
	}
	iface.input = n.receive
	return n
}

// Addr returns the node address.
func (n *Node) Addr() Addr { return n.addr }

// EnableIPsec installs a security association; all subsequent traffic is
// encapsulated in ESP and only ESP traffic with a valid tag is accepted.
func (n *Node) EnableIPsec(sa *SecurityAssociation) { n.sa = sa }

// send transmits a network packet through the interface (via ESP when a
// security association is installed). A packet whose payload exceeds
// DefaultMTU is dropped and counted: no frame could carry it.
func (n *Node) send(p *Packet) {
	if n.sa != nil {
		enc, err := n.sa.Encapsulate(p)
		if err != nil {
			return
		}
		p = enc
	}
	if len(p.Payload) > DefaultMTU {
		n.TxDropped++
		return
	}
	n.TxPackets++
	n.iface.SendFunc(p.Marshal())
}

// receive parses, optionally decapsulates, and dispatches a packet.
func (n *Node) receive(data []byte) {
	p, err := UnmarshalPacket(data)
	if err != nil {
		n.RxDropped++
		return
	}
	if n.sa != nil {
		if p.Proto != ProtoESP {
			n.ESPDropped++
			return
		}
		inner, err := n.sa.Decapsulate(p)
		if err != nil {
			n.ESPDropped++
			return
		}
		p = inner
	}
	if p.Dst != n.addr {
		n.RxDropped++
		return
	}
	n.RxPackets++
	switch p.Proto {
	case ProtoUDP:
		n.handleUDP(p)
	case ProtoTCP:
		n.handleTCP(p)
	default:
		n.RxDropped++
	}
}

// --- UDP ---

// udp header: src port(2) dst port(2) len(2)
const udpHeaderLen = 6

// BindUDP registers a datagram handler on a port.
func (n *Node) BindUDP(port uint16, h UDPHandler) { n.udpPorts[port] = h }

// SendUDP transmits a datagram.
func (n *Node) SendUDP(dst Addr, srcPort, dstPort uint16, data []byte) {
	hdr := binary.BigEndian.AppendUint16(make([]byte, 0, udpHeaderLen+len(data)), srcPort)
	hdr = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(hdr, dstPort), uint16(len(data)))
	n.send(&Packet{Src: n.addr, Dst: dst, Proto: ProtoUDP, TTL: 64, Payload: append(hdr, data...)})
}

func (n *Node) handleUDP(p *Packet) {
	if len(p.Payload) < udpHeaderLen {
		n.RxDropped++
		return
	}
	srcPort := binary.BigEndian.Uint16(p.Payload[0:2])
	dstPort := binary.BigEndian.Uint16(p.Payload[2:4])
	ln := int(binary.BigEndian.Uint16(p.Payload[4:6]))
	if len(p.Payload) != udpHeaderLen+ln {
		n.RxDropped++
		return
	}
	h, ok := n.udpPorts[dstPort]
	if !ok {
		n.RxDropped++
		return
	}
	h(p.Src, srcPort, p.Payload[udpHeaderLen:])
}
