package ipstack

import (
	"encoding/binary"
)

// A simplified TCP: three-way handshake, byte-stream sequence numbers,
// cumulative ACKs, fixed MSS, go-back-N retransmission and a configurable
// send window. The window parameter is the knob RFC 2488 (which the paper
// cites for satellite TCP tuning) recommends enlarging over long
// fat pipes; the protocol-comparison experiment sweeps it.

// TCP segment flags.
const (
	flagSYN byte = 1 << iota
	flagACK
)

// tcp header: src port(2) dst port(2) seq(4) ack(4) flags(1) len(2)
const tcpHeaderLen = 15

// DefaultMSS is the maximum segment payload, sized so a segment still
// fits one TC transfer frame after TCP, IP and ESP (IPsec) overheads.
const DefaultMSS = 920

type connKey struct {
	remote     Addr
	localPort  uint16
	remotePort uint16
}

type segment struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            byte
	data             []byte
}

func (s *segment) marshal() []byte {
	out := binary.BigEndian.AppendUint16(make([]byte, 0, tcpHeaderLen+len(s.data)), s.srcPort)
	out = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint16(out, s.dstPort), s.seq)
	out = append(binary.BigEndian.AppendUint32(out, s.ack), s.flags)
	return append(binary.BigEndian.AppendUint16(out, uint16(len(s.data))), s.data...)
}

func parseSegment(data []byte) (*segment, bool) {
	if len(data) < tcpHeaderLen {
		return nil, false
	}
	ln := int(binary.BigEndian.Uint16(data[13:15]))
	if len(data) != tcpHeaderLen+ln {
		return nil, false
	}
	return &segment{
		srcPort: binary.BigEndian.Uint16(data[0:2]),
		dstPort: binary.BigEndian.Uint16(data[2:4]),
		seq:     binary.BigEndian.Uint32(data[4:8]),
		ack:     binary.BigEndian.Uint32(data[8:12]),
		flags:   data[12],
		data:    append([]byte{}, data[tcpHeaderLen:]...),
	}, true
}

// TCPConn is one connection endpoint.
type TCPConn struct {
	node *Node
	key  connKey // remote address and both ports

	established bool
	// Window is the send window in segments (the RFC 2488 knob).
	Window int
	// RTO is the retransmission timeout in seconds.
	RTO float64
	// MSS is the maximum segment size in bytes.
	MSS int

	// sender state
	sendQueue [][]byte // unacked segments in order
	sendBase  uint32   // sequence number of sendQueue[0]
	inFlight  int
	timerID   int
	// receiver state
	rcvNext uint32

	// OnConnect fires when the handshake completes (client side).
	OnConnect func()
	// OnData delivers in-order received bytes.
	OnData func(data []byte)
	// Drained fires whenever the send queue empties.
	Drained func()

	Retransmissions int
}

// DialTCP opens a client connection; OnConnect fires when established.
func (n *Node) DialTCP(dst Addr, srcPort, dstPort uint16) *TCPConn {
	c := n.newConn(dst, srcPort, dstPort)
	n.tcpConns[c.key] = c
	c.sendSegment(&segment{srcPort: srcPort, dstPort: dstPort, flags: flagSYN})
	return c
}

// ListenTCP registers an accept callback for a port.
func (n *Node) ListenTCP(port uint16, onConn func(*TCPConn)) {
	n.tcpListen[port] = onConn
}

func (n *Node) newConn(remote Addr, localPort, remotePort uint16) *TCPConn {
	return &TCPConn{
		node:   n,
		key:    connKey{remote: remote, localPort: localPort, remotePort: remotePort},
		Window: 8,
		RTO:    1.0,
		MSS:    DefaultMSS,
	}
}

// Send queues data on the connection (segments of MSS bytes).
func (c *TCPConn) Send(data []byte) {
	for len(data) > 0 {
		n := min(c.MSS, len(data))
		seg := make([]byte, n)
		copy(seg, data[:n])
		c.sendQueue = append(c.sendQueue, seg)
		data = data[n:]
	}
	if c.established {
		c.pump(false)
	}
}

func (c *TCPConn) sendSegment(s *segment) {
	c.node.send(&Packet{Src: c.node.addr, Dst: c.key.remote, Proto: ProtoTCP, TTL: 64, Payload: s.marshal()})
}

func (c *TCPConn) pump(retransmit bool) {
	if retransmit {
		c.Retransmissions += c.inFlight
		c.inFlight = 0
	}
	offset := uint32(0)
	for i := 0; i < c.inFlight; i++ {
		offset += uint32(len(c.sendQueue[i]))
	}
	for c.inFlight < c.Window && c.inFlight < len(c.sendQueue) {
		data := c.sendQueue[c.inFlight]
		c.sendSegment(&segment{
			srcPort: c.key.localPort, dstPort: c.key.remotePort,
			seq: c.sendBase + offset, flags: flagACK, ack: c.rcvNext, data: data,
		})
		offset += uint32(len(data))
		c.inFlight++
	}
	c.armTimer()
}

func (c *TCPConn) armTimer() {
	if len(c.sendQueue) == 0 {
		return
	}
	c.timerID++
	id := c.timerID
	c.node.sim.Schedule(c.RTO, func() {
		if id == c.timerID && len(c.sendQueue) > 0 {
			c.pump(true)
		}
	})
}

// handleTCP dispatches a TCP packet to a connection or listener.
func (n *Node) handleTCP(p *Packet) {
	s, ok := parseSegment(p.Payload)
	if !ok {
		n.RxDropped++
		return
	}
	key := connKey{remote: p.Src, localPort: s.dstPort, remotePort: s.srcPort}
	c, exists := n.tcpConns[key]

	if !exists {
		if s.flags&flagSYN != 0 && s.flags&flagACK == 0 {
			// Passive open.
			accept, listening := n.tcpListen[s.dstPort]
			if !listening {
				n.RxDropped++
				return
			}
			c = n.newConn(p.Src, s.dstPort, s.srcPort)
			c.established = true
			n.tcpConns[key] = c
			c.sendSegment(&segment{srcPort: c.key.localPort, dstPort: c.key.remotePort, flags: flagSYN | flagACK})
			accept(c)
			return
		}
		n.RxDropped++
		return
	}

	switch {
	case s.flags&flagSYN != 0 && s.flags&flagACK != 0:
		// Handshake complete (client side).
		if !c.established {
			c.established = true
			if c.OnConnect != nil {
				c.OnConnect()
			}
			c.pump(false)
		}
	default:
		c.handleData(s)
	}
}

func (c *TCPConn) handleData(s *segment) {
	// Receiver: accept in-order data.
	if len(s.data) > 0 {
		if s.seq == c.rcvNext {
			c.rcvNext += uint32(len(s.data))
			if c.OnData != nil {
				c.OnData(s.data)
			}
		}
		// Cumulative ACK (pure, no data).
		c.sendSegment(&segment{
			srcPort: c.key.localPort, dstPort: c.key.remotePort,
			flags: flagACK, ack: c.rcvNext,
		})
		if s.flags&flagACK != 0 {
			c.handleAck(s.ack)
		}
		return
	}
	// Pure ACK.
	if s.flags&flagACK != 0 {
		c.handleAck(s.ack)
	}
}

func (c *TCPConn) handleAck(ack uint32) {
	acked := int(ack - c.sendBase) // modulo arithmetic
	if acked <= 0 {
		return
	}
	bytes := 0
	drop := 0
	for _, seg := range c.sendQueue {
		if bytes+len(seg) > acked {
			break
		}
		bytes += len(seg)
		drop++
	}
	if drop == 0 {
		return
	}
	c.sendQueue = c.sendQueue[drop:]
	c.sendBase += uint32(bytes)
	c.inFlight -= drop
	c.inFlight = max(c.inFlight, 0)
	if len(c.sendQueue) == 0 {
		c.timerID++ // cancel timer
		if c.Drained != nil {
			c.Drained()
		}
		return
	}
	c.pump(false)
}
