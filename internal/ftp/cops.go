package ftp

import (
	"encoding/binary"
	"errors"

	"repro/internal/ipstack"
)

// A COPS-style policy protocol (§3.3: "another set-up protocol appears
// very interesting: COPS. It may be employed to send reconfiguration
// policies (transmitted at the client or at the server initiative)").
// The satellite hosts the policy enforcement point (PEP); the NCC hosts
// the policy decision point (PDP). Decisions carry reconfiguration
// policies — which design to load on which device and when.

// COPSPort is the PDP listening port (IANA's COPS port).
const COPSPort = 3288

// COPS message types.
const (
	COPSRequest  byte = 1 // PEP -> PDP: context / state request
	COPSDecision byte = 2 // PDP -> PEP: install a policy
	COPSReport   byte = 3 // PEP -> PDP: outcome of an installed policy
)

// Policy is a reconfiguration directive.
type Policy struct {
	Device   string // target FPGA name
	Design   string // bitstream/design name to load
	Validate bool   // run the validation service afterwards
	Rollback bool   // return to the previous configuration on failure
}

// Marshal packs the policy.
func (p Policy) Marshal() []byte {
	out := []byte{}
	out = appendString(out, p.Device)
	out = appendString(out, p.Design)
	flags := byte(0)
	if p.Validate {
		flags |= 1
	}
	if p.Rollback {
		flags |= 2
	}
	return append(out, flags)
}

// UnmarshalPolicy parses a policy payload.
func UnmarshalPolicy(b []byte) (Policy, error) {
	var p Policy
	var err error
	p.Device, b, err = takeString(b)
	if err != nil {
		return p, err
	}
	p.Design, b, err = takeString(b)
	if err != nil {
		return p, err
	}
	if len(b) != 1 {
		return p, errors.New("ftp: bad policy encoding")
	}
	p.Validate = b[0]&1 != 0
	p.Rollback = b[0]&2 != 0
	return p, nil
}

func appendString(out []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(out, uint16(len(s))), s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("ftp: truncated string")
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	if len(b) < 2+n {
		return "", nil, errors.New("ftp: truncated string body")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// copsMsg framing: type(1) len(4) payload
func copsMsg(t byte, payload []byte) []byte {
	out := append(make([]byte, 0, 5+len(payload)), t)
	return append(binary.BigEndian.AppendUint32(out, uint32(len(payload))), payload...)
}

// copsParser incrementally decodes framed messages from a TCP stream.
type copsParser struct {
	buf []byte
}

func (p *copsParser) feed(d []byte, emit func(t byte, payload []byte)) {
	p.buf = append(p.buf, d...)
	for {
		if len(p.buf) < 5 {
			return
		}
		n := int(binary.BigEndian.Uint32(p.buf[1:5]))
		if len(p.buf) < 5+n {
			return
		}
		t := p.buf[0]
		payload := append([]byte{}, p.buf[5:5+n]...)
		p.buf = p.buf[5+n:]
		emit(t, payload)
	}
}

// PDP is the NCC-side policy decision point.
type PDP struct {
	// OnRequest receives PEP context requests; the returned policies are
	// pushed as decisions.
	OnRequest func(context string) []Policy
	// OnReport receives PEP outcome reports as sent (ncc parses them).
	OnReport func(report string)

	conns []*ipstack.TCPConn
}

// NewPDP starts the decision point listening on COPSPort.
func NewPDP(node *ipstack.Node) *PDP {
	pdp := &PDP{}
	node.ListenTCP(COPSPort, pdp.accept)
	return pdp
}

func (pdp *PDP) accept(c *ipstack.TCPConn) {
	pdp.conns = append(pdp.conns, c)
	var parser copsParser
	c.OnData = func(d []byte) {
		parser.feed(d, func(t byte, payload []byte) {
			switch t {
			case COPSRequest:
				if pdp.OnRequest == nil {
					return
				}
				for _, pol := range pdp.OnRequest(string(payload)) {
					c.Send(copsMsg(COPSDecision, pol.Marshal()))
				}
			case COPSReport:
				if pdp.OnReport != nil {
					pdp.OnReport(string(payload))
				}
			}
		})
	}
}

// Push sends an unsolicited decision to every connected PEP (the
// "server initiative" mode).
func (pdp *PDP) Push(pol Policy) {
	for _, c := range pdp.conns {
		c.Send(copsMsg(COPSDecision, pol.Marshal()))
	}
}

// PEP is the on-board policy enforcement point.
type PEP struct {
	conn *ipstack.TCPConn
	// OnDecision is invoked for each received policy.
	OnDecision func(Policy)
}

// NewPEP dials the PDP.
func NewPEP(node *ipstack.Node, pdp ipstack.Addr, localPort uint16) *PEP {
	pep := &PEP{}
	pep.conn = node.DialTCP(pdp, localPort, COPSPort)
	var parser copsParser
	pep.conn.OnData = func(d []byte) {
		parser.feed(d, func(t byte, payload []byte) {
			if t != COPSDecision || pep.OnDecision == nil {
				return
			}
			if pol, err := UnmarshalPolicy(payload); err == nil {
				pep.OnDecision(pol)
			}
		})
	}
	return pep
}

// Request sends a context request (client-initiative mode).
func (pep *PEP) Request(context string) {
	pep.conn.Send(copsMsg(COPSRequest, []byte(context)))
}

// Report sends an outcome report for an installed policy.
func (pep *PEP) Report(report string) {
	pep.conn.Send(copsMsg(COPSReport, []byte(report)))
}
